// Package metrics is the simulator's low-overhead observability layer:
// per-router and per-channel counters, windowed time-series samples and
// latency histograms, collected by cheap inline counter increments on
// the engine's hot path (the callback Observer in internal/sim remains
// the tracing interface; this package is the counting one).
//
// A Collector is attached to a run through sim.Config.Metrics. The
// engine binds it at construction and then increments the exported
// counter slices directly — no interface dispatch, no per-event
// closures, no allocation in steady state. When no Collector is
// attached the engine's hot path pays exactly one nil check per hook,
// preserving the zero-overhead-when-disabled invariant guarded by
// TestAllocateZeroAllocs.
//
// All quantities are in simulator cycles and flits; exporters report
// the raw units and leave unit conversion to consumers.
package metrics

import (
	"time"

	"turnmodel/internal/stats"
	"turnmodel/internal/topology"
)

// PhaseSampleEvery is the cadence, in cycles, at which the engine times
// its generate, allocate and move phases for an attached collector:
// timing every cycle would cost more than the phases it measures.
const PhaseSampleEvery = 1024

// Config parameterizes a Collector.
type Config struct {
	// Interval is the time-series sampling cadence in cycles. Zero
	// disables sampling; counters are still collected.
	Interval int64
	// ExactLatencies additionally records every delivered packet's
	// latency exactly (unbounded memory on long runs — a debugging
	// flag). The bucketed histogram is always maintained.
	ExactLatencies bool
	// HistogramBucket is the latency histogram bucket width in cycles
	// (default 1).
	HistogramBucket float64
}

// Sample is one windowed time-series observation, taken every
// Config.Interval cycles.
type Sample struct {
	// Cycle is the sample time.
	Cycle int64 `json:"cycle"`
	// DeliveredFlits is the cumulative flit deliveries at the sample.
	DeliveredFlits int64 `json:"delivered_flits"`
	// WindowThroughput is flits delivered per cycle since the previous
	// sample.
	WindowThroughput float64 `json:"window_throughput_flits_per_cycle"`
	// InFlight is the number of packets generated but not yet fully
	// delivered.
	InFlight int64 `json:"in_flight_packets"`
	// BacklogFlits is the flits waiting in source queues.
	BacklogFlits int64 `json:"backlog_flits"`
}

// Collector accumulates one run's metrics. The exported slice fields
// are the engine-facing counters, indexed as documented; everything
// else is accessed through methods. A Collector must not be shared
// between concurrent runs.
type Collector struct {
	cfg Config

	// Per-router counters, indexed by router (node) id.

	// RouterFlits counts flits forwarded out of each router, including
	// ejections to the local processor. The engine credits a worm's
	// flits to a channel in bulk, so RouterFlits and ChannelFlits are
	// complete once the run has ended.
	RouterFlits []int64
	// Grants counts output-channel allocations granted at each router
	// (one per packet per router traversed, ejection included).
	Grants []int64
	// Denials counts allocation attempts that found every permitted
	// output busy. Attempt-based: a sleeping router (off the
	// event-driven allocation worklist) is not re-counted every cycle.
	Denials []int64
	// Misroutes counts granted outputs that did not reduce the distance
	// to the packet's destination.
	Misroutes []int64
	// WaitCycles integrates, over granted headers, the cycles spent
	// between head arrival at the router and allocation. Headers still
	// blocked at the end of the run are not included.
	WaitCycles []int64
	// Occupancy is the current number of buffered flits at each router
	// (all input buffers, injection included); OccIntegral is its
	// per-cycle time integral.
	Occupancy   []int32
	OccIntegral []int64

	// ChannelFlits counts flits per physical output channel, indexed
	// router*nphys+phys exactly like the engine's linkUsed array; slot
	// nphys-1 of each router is the ejection channel.
	ChannelFlits []int64

	// InjectedFlits and DeliveredFlits are network-wide flit totals,
	// brought up to date at every sample and at the end of the run.
	InjectedFlits  int64
	DeliveredFlits int64

	// Recovery counters, network-wide, incremented by the engine when
	// deadlock recovery is enabled (sim.Config.RecoveryThreshold > 0):
	// Recoveries counts regressive worm aborts, Retries source-level
	// re-injections, PacketsDropped retry-budget exhaustions, and
	// DrainedFlits the flits aborts removed from network buffers.
	Recoveries     int64
	Retries        int64
	PacketsDropped int64
	DrainedFlits   int64

	topo       *topology.Topology
	nphys      int
	cycles     int64
	nextSample int64
	samples    []Sample
	lastDel    int64
	latencies  *stats.Histogram
	epochLats  []stats.Accumulator
	exact      []float64
	bound      bool

	// phaseCycles counts the cycles whose phases were timed, and
	// phaseNs the host time spent in generate, allocate and move over
	// those cycles.
	phaseCycles int64
	phaseNs     [3]time.Duration
}

// New returns an unbound Collector; the engine binds it to a topology
// when the run is constructed.
func New(cfg Config) *Collector {
	if cfg.HistogramBucket <= 0 {
		cfg.HistogramBucket = 1
	}
	return &Collector{cfg: cfg, latencies: stats.NewHistogram(cfg.HistogramBucket)}
}

// Bind sizes the counters for a run on topology t with nphys physical
// output slots per router (2*dims + 1, the last being ejection). The
// engine calls it from New; rebinding resets all counters.
func (m *Collector) Bind(t *topology.Topology, nphys int) {
	n := t.Nodes()
	m.topo = t
	m.nphys = nphys
	m.RouterFlits = make([]int64, n)
	m.Grants = make([]int64, n)
	m.Denials = make([]int64, n)
	m.Misroutes = make([]int64, n)
	m.WaitCycles = make([]int64, n)
	m.Occupancy = make([]int32, n)
	m.OccIntegral = make([]int64, n)
	m.ChannelFlits = make([]int64, n*nphys)
	m.InjectedFlits = 0
	m.DeliveredFlits = 0
	m.Recoveries = 0
	m.Retries = 0
	m.PacketsDropped = 0
	m.DrainedFlits = 0
	m.epochLats = m.epochLats[:0]
	m.cycles = 0
	m.nextSample = m.cfg.Interval
	m.samples = m.samples[:0]
	m.lastDel = 0
	m.latencies = stats.NewHistogram(m.cfg.HistogramBucket)
	m.exact = m.exact[:0]
	m.phaseCycles = 0
	m.phaseNs = [3]time.Duration{}
	m.bound = true
}

// AddPhaseSample records the host time one sampled cycle spent in each
// engine phase.
func (m *Collector) AddPhaseSample(generate, allocate, move time.Duration) {
	m.phaseCycles++
	m.phaseNs[0] += generate
	m.phaseNs[1] += allocate
	m.phaseNs[2] += move
}

// Bound reports whether the collector has been attached to a run.
func (m *Collector) Bound() bool { return m.bound }

// EndCycle accumulates the per-cycle time integrals. The engine calls
// it once per simulated cycle.
func (m *Collector) EndCycle() {
	for i, occ := range m.Occupancy {
		m.OccIntegral[i] += int64(occ)
	}
	m.cycles++
}

// SampleDue reports whether a time-series sample is due at cycle; the
// engine then computes the (more expensive) sampled quantities and
// calls TakeSample. Split so the backlog scan runs only at the
// sampling cadence.
func (m *Collector) SampleDue(cycle int64) bool {
	return m.cfg.Interval > 0 && cycle >= m.nextSample
}

// TakeSample records one time-series sample at cycle.
func (m *Collector) TakeSample(cycle, inFlight, backlogFlits int64) {
	window := m.cfg.Interval
	if len(m.samples) > 0 {
		window = cycle - m.samples[len(m.samples)-1].Cycle
	} else if cycle > 0 {
		window = cycle
	}
	thr := 0.0
	if window > 0 {
		thr = float64(m.DeliveredFlits-m.lastDel) / float64(window)
	}
	m.samples = append(m.samples, Sample{
		Cycle:            cycle,
		DeliveredFlits:   m.DeliveredFlits,
		WindowThroughput: thr,
		InFlight:         inFlight,
		BacklogFlits:     backlogFlits,
	})
	m.lastDel = m.DeliveredFlits
	for m.nextSample <= cycle {
		m.nextSample += m.cfg.Interval
	}
}

// RecordLatency records one delivered packet's latency in cycles.
func (m *Collector) RecordLatency(cycles float64) {
	m.latencies.Add(cycles)
	if m.cfg.ExactLatencies {
		m.exact = append(m.exact, cycles)
	}
}

// RecordEpochLatency attributes one delivered packet's latency to the
// fault epoch the delivery happened in, so fault campaigns can compare
// latency across fault-set changes. Epochs are small dense integers
// (the topology's fault epoch counter); the accumulator slice grows to
// the highest epoch seen.
func (m *Collector) RecordEpochLatency(epoch int, cycles float64) {
	if epoch < 0 {
		return
	}
	for len(m.epochLats) <= epoch {
		m.epochLats = append(m.epochLats, stats.Accumulator{})
	}
	m.epochLats[epoch].Add(cycles)
}

// EpochLatencies returns the per-fault-epoch latency accumulators,
// indexed by epoch. Epochs with no deliveries have zero-count
// accumulators; the slice is empty when RecordEpochLatency was never
// called (no fault plan, or no metrics-attached deliveries).
func (m *Collector) EpochLatencies() []stats.Accumulator { return m.epochLats }

// Samples returns the recorded time series.
func (m *Collector) Samples() []Sample { return m.samples }

// Latencies returns the latency histogram (cycles).
func (m *Collector) Latencies() *stats.Histogram { return m.latencies }

// ExactLatencies returns the per-packet latency record, empty unless
// Config.ExactLatencies was set.
func (m *Collector) ExactLatencies() []float64 { return m.exact }

// Cycles returns the number of cycles the collector observed.
func (m *Collector) Cycles() int64 { return m.cycles }

// Topology returns the bound topology (nil before Bind).
func (m *Collector) Topology() *topology.Topology { return m.topo }

// channelUtilization returns flits/cycle for channel slot i, guarding
// against an unstarted run.
func (m *Collector) channelUtilization(i int) float64 {
	if m.cycles == 0 {
		return 0
	}
	return float64(m.ChannelFlits[i]) / float64(m.cycles)
}

// isEjection reports whether channel slot i is a router's ejection
// channel rather than a network link.
func (m *Collector) isEjection(i int) bool { return i%m.nphys == m.nphys-1 }

// channelOf maps a non-ejection channel slot to its topology channel.
func (m *Collector) channelOf(i int) topology.Channel {
	return topology.Channel{
		From: topology.NodeID(i / m.nphys),
		Dir:  topology.DirectionFromIndex(i % m.nphys),
	}
}

// Summary condenses a run's metrics into network-wide totals, for
// per-figure dumps where full per-router arrays would drown the
// output.
type Summary struct {
	// Cycles observed by the collector.
	Cycles int64 `json:"cycles"`
	// FlitsForwarded is the network-wide flit-forward total (ejections
	// included).
	FlitsForwarded int64 `json:"flits_forwarded"`
	// InjectedFlits and DeliveredFlits are the network-wide totals.
	InjectedFlits  int64 `json:"injected_flits"`
	DeliveredFlits int64 `json:"delivered_flits"`
	// Grants, Denials, Misroutes and WaitCycles are the per-router
	// counters summed over all routers.
	Grants     int64 `json:"allocation_grants"`
	Denials    int64 `json:"allocation_denials"`
	Misroutes  int64 `json:"misroutes"`
	WaitCycles int64 `json:"allocation_wait_cycles"`
	// MeanOccupancy is the mean buffered flits per router per cycle.
	MeanOccupancy float64 `json:"mean_buffer_occupancy_flits"`
	// MaxChannelUtilization is the busiest network channel's flits per
	// cycle, and HottestChannel names it.
	MaxChannelUtilization float64 `json:"max_channel_utilization"`
	HottestChannel        string  `json:"hottest_channel"`
	// LatencyP50Cycles etc. summarize the latency histogram, in cycles.
	LatencyCount      int64   `json:"latency_count"`
	LatencyMeanCycles float64 `json:"latency_mean_cycles"`
	LatencyP50Cycles  float64 `json:"latency_p50_cycles"`
	LatencyP95Cycles  float64 `json:"latency_p95_cycles"`
	LatencyP99Cycles  float64 `json:"latency_p99_cycles"`
	// Samples counts the recorded time-series points.
	Samples int `json:"samples"`
	// Recovery totals; all zero when deadlock recovery was disabled.
	Recoveries     int64 `json:"recoveries,omitempty"`
	Retries        int64 `json:"retries,omitempty"`
	PacketsDropped int64 `json:"packets_dropped,omitempty"`
	DrainedFlits   int64 `json:"drained_flits,omitempty"`
	// FaultEpochs is the highest fault epoch that recorded a delivery
	// via RecordEpochLatency, plus one (0 when per-epoch attribution
	// never ran).
	FaultEpochs int `json:"fault_epochs,omitempty"`
	// PhaseSampledCycles counts the cycles whose engine phases were
	// timed, one in every PhaseSampleEvery, and GenerateNs, AllocateNs
	// and MoveNs are the mean host nanoseconds such a cycle spent in
	// each phase. They are wall-clock readings, so unlike every other
	// field they vary from run to run.
	PhaseSampledCycles int64   `json:"phase_sampled_cycles,omitempty"`
	GenerateNs         float64 `json:"generate_ns_per_cycle,omitempty"`
	AllocateNs         float64 `json:"allocate_ns_per_cycle,omitempty"`
	MoveNs             float64 `json:"move_ns_per_cycle,omitempty"`
}

// Summarize computes the run's Summary.
func (m *Collector) Summarize() Summary {
	s := Summary{
		Cycles:         m.cycles,
		InjectedFlits:  m.InjectedFlits,
		DeliveredFlits: m.DeliveredFlits,
		Samples:        len(m.samples),
		Recoveries:     m.Recoveries,
		Retries:        m.Retries,
		PacketsDropped: m.PacketsDropped,
		DrainedFlits:   m.DrainedFlits,
		FaultEpochs:    len(m.epochLats),
	}
	if n := m.phaseCycles; n > 0 {
		s.PhaseSampledCycles = n
		s.GenerateNs = float64(m.phaseNs[0]) / float64(n)
		s.AllocateNs = float64(m.phaseNs[1]) / float64(n)
		s.MoveNs = float64(m.phaseNs[2]) / float64(n)
	}
	for i := range m.RouterFlits {
		s.FlitsForwarded += m.RouterFlits[i]
		s.Grants += m.Grants[i]
		s.Denials += m.Denials[i]
		s.Misroutes += m.Misroutes[i]
		s.WaitCycles += m.WaitCycles[i]
	}
	var occ int64
	for _, o := range m.OccIntegral {
		occ += o
	}
	if m.cycles > 0 && len(m.OccIntegral) > 0 {
		s.MeanOccupancy = float64(occ) / float64(m.cycles) / float64(len(m.OccIntegral))
	}
	best, bestIdx := int64(-1), -1
	for i, f := range m.ChannelFlits {
		if m.isEjection(i) {
			continue
		}
		if f > best {
			best, bestIdx = f, i
		}
	}
	if bestIdx >= 0 {
		s.MaxChannelUtilization = m.channelUtilization(bestIdx)
		s.HottestChannel = m.channelOf(bestIdx).String()
	}
	if n := m.latencies.N(); n > 0 {
		s.LatencyCount = n
		s.LatencyMeanCycles = m.latencies.Mean()
		s.LatencyP50Cycles = m.latencies.Percentile(0.50)
		s.LatencyP95Cycles = m.latencies.Percentile(0.95)
		s.LatencyP99Cycles = m.latencies.Percentile(0.99)
	}
	return s
}
