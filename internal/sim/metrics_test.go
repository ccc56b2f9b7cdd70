package sim

import (
	"math"
	"testing"

	"turnmodel/internal/metrics"
	"turnmodel/internal/routing"
	"turnmodel/internal/topology"
	"turnmodel/internal/traffic"
)

// TestMetricsDoNotPerturbResults: attaching a collector must leave the
// simulation bit-identical — same rng stream, same schedule, same
// Result — with metrics both disabled and enabled (the golden-figure
// invariant, at single-run granularity).
func TestMetricsDoNotPerturbResults(t *testing.T) {
	run := func(m *metrics.Collector) Result {
		topo := topology.NewMesh(8, 8)
		res, err := Run(Config{
			Algorithm:     routing.NewWestFirst(topo),
			Pattern:       traffic.NewMeshTranspose(topo),
			OfferedLoad:   1.5,
			WarmupCycles:  1000,
			MeasureCycles: 4000,
			Seed:          7,
			Metrics:       m,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	base := run(nil)
	withMetrics := run(metrics.New(metrics.Config{Interval: 250, ExactLatencies: true}))
	if base != withMetrics {
		t.Errorf("metrics perturbed the run:\n  off: %+v\n  on:  %+v", base, withMetrics)
	}
	// And a misroute-capable config, which shares the profitability
	// computation between the patience discipline and the counter.
	runMis := func(m *metrics.Collector) Result {
		topo := topology.NewMesh(8, 8)
		res, err := Run(Config{
			Algorithm:     routing.NewWestFirst(topo),
			Pattern:       traffic.NewUniform(topo),
			OfferedLoad:   2.0,
			MisrouteAfter: 8,
			WarmupCycles:  800,
			MeasureCycles: 2000,
			Seed:          11,
			Metrics:       m,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	if a, b := runMis(nil), runMis(metrics.New(metrics.Config{})); a != b {
		t.Errorf("metrics perturbed the misroute run:\n  off: %+v\n  on:  %+v", a, b)
	}
}

// TestMetricsCounterConsistency: the collector's totals reconcile with
// the run's own accounting — injected equals delivered flits on a
// drained scripted run, grants count one allocation per router visited
// (hops + ejection), and the channel counters agree with the
// Observer-based occupancy recorder.
func TestMetricsCounterConsistency(t *testing.T) {
	topo := topology.NewMesh(6, 6)
	m := metrics.New(metrics.Config{Interval: 50})
	occ := NewChannelOccupancy(topo)
	var script []ScriptedMessage
	flits := 0
	for i := 0; i < 24; i++ {
		src := topology.NodeID((i * 5) % topo.Nodes())
		dst := topology.NodeID((i*13 + 7) % topo.Nodes())
		if src == dst {
			continue
		}
		script = append(script, ScriptedMessage{Cycle: int64(2 * i), Src: src, Dst: dst, Length: 8})
		flits += 8
	}
	e, err := New(Config{
		Algorithm: routing.NewNegativeFirst(topo),
		Script:    script,
		Metrics:   m,
		Observer:  occ.Observer(),
	})
	if err != nil {
		t.Fatal(err)
	}
	var hopSum int
	e.onDeliver = func(p *packet) { hopSum += p.hops }
	res := e.run()
	if res.Deadlocked || res.PacketsDelivered != int64(len(script)) {
		t.Fatalf("bad run: %+v", res)
	}
	if m.InjectedFlits != int64(flits) || m.DeliveredFlits != int64(flits) {
		t.Errorf("injected/delivered = %d/%d, want %d/%d", m.InjectedFlits, m.DeliveredFlits, flits, flits)
	}
	var grants, denials int64
	for v := range m.Grants {
		grants += m.Grants[v]
		denials += m.Denials[v]
	}
	// One grant per router traversed: hops network outputs plus the
	// destination's ejection channel.
	if want := int64(hopSum + len(script)); grants != want {
		t.Errorf("grants = %d, want hops+deliveries = %d", grants, want)
	}
	if denials < 0 {
		t.Errorf("negative denial count %d", denials)
	}
	// Per-channel flit counts must agree with the Forward-event
	// recorder: same total, same per-channel values.
	var chanTotal int64
	for i, f := range m.ChannelFlits {
		if i%(2*topo.NumDims()+1) == 2*topo.NumDims() {
			continue // ejection slot
		}
		chanTotal += f
	}
	if chanTotal != occ.Total() {
		t.Errorf("metrics network flits %d != observer total %d", chanTotal, occ.Total())
	}
	hot, hotCount := occ.Hottest()
	nphys := 2*topo.NumDims() + 1
	if got := m.ChannelFlits[int(hot.From)*nphys+hot.Dir.Index()]; got != hotCount {
		t.Errorf("hottest channel %v: metrics %d != observer %d", hot, got, hotCount)
	}
	// All buffers drained: the occupancy gauges are back to zero and
	// the latency histogram saw every packet.
	for v, o := range m.Occupancy {
		if o != 0 {
			t.Errorf("router %d occupancy %d after drain, want 0", v, o)
		}
	}
	if m.Latencies().N() != int64(len(script)) {
		t.Errorf("latency histogram N = %d, want %d", m.Latencies().N(), len(script))
	}
	if m.Cycles() != res.Cycles {
		t.Errorf("collector cycles %d != run cycles %d", m.Cycles(), res.Cycles)
	}
	if len(m.Samples()) == 0 {
		t.Error("no time-series samples recorded")
	}
}

// TestScriptedUtilizationWindow: regression for the measurement-window
// bug where scripted runs had to temporarily overwrite
// cfg.MeasureCycles so hottestChannel divided by the right window.
// Scripted utilization must be positive, at most 1.0 (a channel cannot
// carry more than one flit per cycle), and exactly consistent with a
// Forward-event recount; replaying a recorded stream workload must
// report nearly the same peak utilization as the stream run.
func TestScriptedUtilizationWindow(t *testing.T) {
	topo := topology.NewMesh(8, 8)
	streamCfg := Config{
		Algorithm:     routing.NewDimensionOrder(topo),
		Pattern:       traffic.NewMeshTranspose(topo),
		OfferedLoad:   2.0,
		WarmupCycles:  500,
		MeasureCycles: 4000,
		Seed:          17,
	}
	stream, err := Run(streamCfg)
	if err != nil {
		t.Fatal(err)
	}
	msgs, err := RecordWorkload(streamCfg, 4500)
	if err != nil {
		t.Fatal(err)
	}
	occ := NewChannelOccupancy(topo)
	scripted, err := Run(Config{
		Algorithm:         routing.NewDimensionOrder(topo),
		Script:            msgs,
		DeadlockThreshold: 100000,
		DrainDeadline:     1 << 20,
		Observer:          occ.Observer(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if scripted.Deadlocked {
		t.Fatalf("replay deadlocked: %+v", scripted)
	}
	if scripted.MaxChannelUtilization <= 0 || scripted.MaxChannelUtilization > 1 {
		t.Errorf("scripted utilization %v out of (0,1]", scripted.MaxChannelUtilization)
	}
	if stream.MaxChannelUtilization <= 0 || stream.MaxChannelUtilization > 1 {
		t.Errorf("stream utilization %v out of (0,1]", stream.MaxChannelUtilization)
	}
	// The scripted run measures from cycle zero, so utilization *
	// cycles must equal the hottest channel's exact flit count.
	_, hotCount := occ.Hottest()
	if got := scripted.MaxChannelUtilization * float64(scripted.Cycles); int64(got+0.5) != hotCount {
		t.Errorf("scripted utilization*cycles = %.1f, observer counted %d flits", got, hotCount)
	}
	// Stream and replay drive the same workload. Their measurement
	// windows differ slightly (the scripted run also counts drain
	// cycles), so the argmax channel can flip between near-ties, but
	// the peak utilization must agree closely. Before the window fix
	// a scripted run divided by the wrong denominator, so this ratio
	// was off by the run-length/measure-window factor.
	if d := math.Abs(stream.MaxChannelUtilization - scripted.MaxChannelUtilization); d > 0.1 {
		t.Errorf("peak utilization differs by %.3f: stream %.3f, scripted %.3f",
			d, stream.MaxChannelUtilization, scripted.MaxChannelUtilization)
	}
	// And the stream's own hottest channel must be roughly as busy in
	// the replay as the stream run claims.
	if got := float64(occ.Count(stream.HottestChannel)) / float64(scripted.Cycles); math.Abs(got-stream.MaxChannelUtilization) > 0.1 {
		t.Errorf("stream hottest channel %v replayed at utilization %.3f, stream measured %.3f",
			stream.HottestChannel, got, stream.MaxChannelUtilization)
	}
}

// TestChannelCountsMatchForwardEvents: the engine credits a worm's
// flits to each channel in bulk — when its tail releases the channel,
// or, for a worm still crossing, when the measurement window opens and
// when the run ends. Those counts must equal a per-flit recount of
// Forward events, over the whole run (the collector's ChannelFlits and
// RouterFlits) and over the measurement window (the Result's hottest
// channel), for runs that end with worms mid-flight, deep buffers,
// several virtual channels and recovery aborts included.
func TestChannelCountsMatchForwardEvents(t *testing.T) {
	const warmup, measure = 700, 1300
	for _, tc := range []struct {
		name string
		mk   func(*topology.Topology) Config
	}{
		{"worms", func(topo *topology.Topology) Config {
			return Config{Algorithm: routing.NewWestFirst(topo), Pattern: traffic.NewMeshTranspose(topo), OfferedLoad: 2.5}
		}},
		{"depth-3", func(topo *topology.Topology) Config {
			return Config{Algorithm: routing.NewWestFirst(topo), Pattern: traffic.NewUniform(topo), OfferedLoad: 3, BufferDepth: 3}
		}},
		{"double-y", func(topo *topology.Topology) Config {
			return Config{VCAlgorithm: routing.NewDoubleY(topo), Pattern: traffic.NewUniform(topo), OfferedLoad: 3}
		}},
		{"recovery", func(topo *topology.Topology) Config {
			return Config{Algorithm: routing.NewFullyAdaptive(topo), Pattern: traffic.NewUniform(topo), OfferedLoad: 4,
				RecoveryThreshold: 40, RetryLimit: 3, RetryBackoff: 10}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			topo := topology.NewMesh(8, 8)
			nphys := 2*topo.NumDims() + 1
			total := make([]int64, topo.Nodes()*nphys)
			window := make([]int64, len(total))
			cfg := tc.mk(topo)
			cfg.WarmupCycles, cfg.MeasureCycles, cfg.Seed = warmup, measure, 3
			cfg.Metrics = metrics.New(metrics.Config{})
			cfg.Observer = ObserverFuncs{ForwardFn: func(cycle int64, ch topology.Channel, _ int, _, _ bool) {
				i := int(ch.From)*nphys + ch.Dir.Index()
				total[i]++
				if cycle >= warmup {
					window[i]++
				}
			}}
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.PacketsInFlight == 0 {
				t.Fatal("no worm in flight at the end; the settlement would go untested")
			}
			if tc.name == "recovery" && res.Recoveries == 0 {
				t.Fatal("no recovery abort; the abort credit would go untested")
			}
			m := cfg.Metrics
			routerNet := make([]int64, topo.Nodes())
			best, bestIdx := int64(-1), -1
			for i := range total {
				if i%nphys == nphys-1 {
					continue // ejection: no Forward event
				}
				if m.ChannelFlits[i] != total[i] {
					t.Fatalf("channel slot %d: collector %d flits, Forward events %d", i, m.ChannelFlits[i], total[i])
				}
				routerNet[i/nphys] += total[i]
				if window[i] > best {
					best, bestIdx = window[i], i
				}
			}
			for r, f := range m.RouterFlits {
				if eject := m.ChannelFlits[r*nphys+nphys-1]; f != routerNet[r]+eject {
					t.Fatalf("router %d: %d flits forwarded, want %d network + %d ejected", r, f, routerNet[r], eject)
				}
			}
			want := topology.Channel{From: topology.NodeID(bestIdx / nphys), Dir: topology.DirectionFromIndex(bestIdx % nphys)}
			if res.HottestChannel != want || res.MaxChannelUtilization != float64(best)/measure {
				t.Fatalf("hottest channel %v at %v, Forward events in the window give %v at %v",
					res.HottestChannel, res.MaxChannelUtilization, want, float64(best)/measure)
			}
		})
	}
}
