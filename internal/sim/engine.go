package sim

import (
	"fmt"
	"math/rand"
	"sort"

	"turnmodel/internal/fault"
	"turnmodel/internal/metrics"
	"turnmodel/internal/routing"
	"turnmodel/internal/stats"
	"turnmodel/internal/topology"
)

// packet is an in-flight message. The paper divides messages into
// packets and packets into flits; as in its experiments every message is
// a single packet.
type packet struct {
	id     int64
	src    topology.NodeID
	dst    topology.NodeID
	length int
	// firstDir restricts the first hop (scripted scenarios only).
	firstDir *topology.Direction

	genCycle     int64 // message created at the source processor
	injectCycle  int64 // header flit entered the source router
	deliverCycle int64 // tail flit consumed at the destination

	flitsDelivered int
	hops           int // network channels traversed by the header

	// lastProgress is the cycle any flit of this packet last advanced
	// (injection or link traversal); the recovery watchdog's staleness
	// key. retries counts regressive aborts of this packet. Both are
	// bookkeeping stores only — with recovery disabled nothing reads
	// them, so results are bit-identical either way.
	lastProgress int64
	retries      int32

	// flitsSent counts the flits that have left the source queue.
	flitsSent int32
	// shift counts the steps the packet's worm has moved as a unit: a
	// run of this packet holds flits seq+shift onward (see run). Under
	// the worm-level move rearAt is the input buffer holding the
	// rearmost flit in the network.
	shift  int32
	rearAt int32
}

// run is a maximal sequence of one packet's consecutive flits in an
// input buffer: flits seq+p.shift to seq+p.shift+n-1, flit 0 being the
// header and flit length-1 the tail. A buffer holds its flits as a
// FIFO of runs: a packet's flits arrive in order over one channel that
// no other packet uses until the tail has passed, so each visit of a
// packet to a buffer is one run.
type run struct {
	p   *packet
	n   int32
	seq int32
}

// bufq is the hot state of one input buffer: the ring state of its
// run FIFO — the slot of the front run within the buffer's arena
// segment, the number of runs and the number of flits — and out, the
// global output index held by the packet flowing through the buffer,
// or -1. A move reads all four together.
type bufq struct {
	head, runs, flits int32
	out               int32
}

// bufMeta is the cold per-buffer state: allocation bookkeeping and the
// routing candidate cache, read once per header rather than per flit.
type bufMeta struct {
	// headArrival is the cycle the current header flit arrived, the key
	// of the local first-come-first-served input selection policy.
	headArrival int64
	// holder is the packet the buffer's allocated output was granted
	// to, valid while the output is held, and settled the flits of it
	// already credited to that output's link (see Engine.chanFlits).
	holder  *packet
	settled int32
	// candEpoch is the topology fault epoch cands was filtered at.
	candEpoch int32

	// cands is the filtered routing candidate list for the header at the
	// front of this buffer: a read-only slice into the compiled route
	// table's arena when one applies, or a view of own otherwise. It is
	// valid while candPkt matches that header's packet and candEpoch
	// matches the topology fault epoch; a new header (new packet id) or
	// a fault-state change invalidates it.
	cands   []routing.Candidate
	candPkt int64
	// own is the buffer-owned candidate storage for the direct
	// evaluation fallback. The fallback must never build into cands
	// in place: cands may alias the shared table arena.
	own []routing.Candidate
}

// pktChunk is the packet freelist's refill granularity: a cache miss
// allocates this many packets in one block.
const pktChunk = 64

// Engine runs one simulation. Construct with New, then call Run.
//
// Port layout: each router has 2n physical network directions with vcs
// virtual channels each, plus one injection input and one ejection
// output. Virtual port index p encodes direction d and virtual channel
// c as p = d.Index()*vcs + c; the injection/ejection port is the last
// (index 2n*vcs). Each physical link (and the ejection channel) carries
// at most one flit per cycle regardless of how many virtual channels
// share it.
type Engine struct {
	cfg   Config
	topo  *topology.Topology
	alg   routing.VCAlgorithm
	rng   *rand.Rand
	vcs   int // virtual channels per physical direction
	vport int // virtual ports per router: 2n*vcs + 1
	nphys int // physical links per router incl. ejection: 2n + 1
	depth int // effective input buffer capacity in flits

	// worms selects the worm-level move: with one virtual channel,
	// one-flit buffers, wormhole forwarding and chained advance, every
	// worm's flits fill consecutive buffers, so a worm whose front can
	// advance moves as one unit (see DESIGN.md, "Performance
	// architecture"). Otherwise each buffer advances on its own.
	worms bool

	// table is the compiled route table for alg at the current fault
	// epoch, or nil when routing.TableFor declines to compile the
	// relation. With a table, fillCandCache is a slice reference into
	// the table arena; without, it evaluates the relation directly
	// through eval.
	table *routing.Table
	eval  routing.Evaluator

	// Flat state, indexed router*vport+port unless noted. Input buffer
	// in keeps its runs in runs[in*rcap : (in+1)*rcap], a ring whose
	// state, with the buffer's allocated output, is bq[in].
	runs     []run
	rcap     int
	bq       []bufq
	meta     []bufMeta
	busyBy   []int32 // virtual output port -> input index holding it, or -1
	linkUsed []bool  // physical link used this cycle, router*nphys+phys
	outDest  []int32 // virtual output port -> downstream input index, -1 ejection
	upOut    []int32 // input index -> upstream virtual output index, -1 injection
	physOf   []int32 // virtual output port -> physical link slot in linkUsed

	queues   []pktRing // per-node source queues
	nextGen  []float64 // per-node next generation time in cycles
	genRate  float64   // messages per cycle per node
	lenCum   []float64 // cumulative packet-length weights
	lenTotal float64   // total packet-length weight
	script   []ScriptedMessage
	scriptAt int

	// freePkts recycles delivered packet structs: deliver pushes (after
	// every consumer — observers, metrics, stats — has read the packet)
	// and generate pops, resetting at acquisition so stale pointers held
	// by tests after a run keep their final values. Refills allocate
	// pktChunk packets at a time, so steady state stops allocating once
	// the pool covers the in-flight peak.
	freePkts []*packet

	cycle     int64
	lastMove  int64
	nextPktID int64
	inFlight  int // packets generated but not yet fully delivered

	// work is the movement phase's LIFO worklist of input buffers, and
	// inWork its membership flags.
	work    []int32
	inWork  []bool
	injUsed []bool // injection channel used this cycle, per injection input

	// flowing marks the inputs the movement phase must attempt: a queued
	// flit with an allocated output and, under the worm-level move, the
	// worm's front. Maintained incrementally so move seeds its worklist
	// from active inputs instead of scanning every buffer.
	flowing bitset

	// allocWork marks routers that may hold a header awaiting output
	// allocation. Bits are set when a header reaches the front of an
	// input buffer and when one of the router's outputs is released, and
	// cleared when a visit finds nothing that could allocate before the
	// next such event.
	allocWork bitset
	// lastFaultEpoch detects mid-run fault-state changes, which force a
	// full allocation rescan and invalidate candidate caches.
	lastFaultEpoch int32

	// dirtyLinks and dirtyInj record which linkUsed/injUsed entries were
	// set this cycle, so the per-cycle reset touches only those.
	dirtyLinks []int32
	dirtyInj   []int32

	// Allocation scratch, reused across routers and cycles so the
	// steady-state hot path performs no heap allocations: the inputs
	// holding an eligible header (len vport), the candidates whose
	// output is free, and their distance-reducing subset.
	waiting   []int32
	freeCands []routing.Candidate
	profCands []routing.Candidate

	// flowScratch materializes the flowing set when seeding the
	// movement worklist of a multi-VC engine (see seedMoveWork).
	flowScratch []int32

	// lenStart snapshots each buffer's flit count at the start of the
	// move phase (strict-advance mode only, nil otherwise).
	lenStart []int32

	// chanFlits counts the flits carried per physical link
	// (router*nphys+phys, the last slot of each router its ejection
	// channel) since the measurement window opened. A worm is credited
	// in bulk, not per flit: when its tail releases an output, every
	// one of its flits has crossed it.
	chanFlits []int64

	// faults replays cfg.FaultPlan as cycles advance, or nil. It runs at
	// the top of step, before generation and allocation, so a cycle's
	// routing decisions always see a consistent fault set.
	faults *fault.Driver

	// recov is the deadlock-recovery state: the retry queue, the
	// watchdog's scan cadence and victim scratch, and the recovery
	// counters. Unused (and cost-free) when cfg.RecoveryThreshold == 0.
	recov recoveryState

	// recObs is cfg.Observer's RecoveryObserver extension, type-asserted
	// once at construction, or nil.
	recObs RecoveryObserver

	// Whole-run flit conservation counters, maintained unconditionally:
	// flits that entered the network (left a source queue), flits
	// consumed at destinations, and flits removed by recovery drains.
	// The invariant checker's conservation law is
	// injected == delivered + drained + (flits sitting in buffers).
	// Window statistics and the metrics collector's totals are
	// differences of these, taken at window and sample boundaries.
	flitsInjectedEver  int64
	flitsDeliveredEver int64
	flitsDrainedEver   int64

	// invariantErr records the first invariant violation found when
	// cfg.CheckInvariants is set ("" = none so far).
	invariantErr string

	stats runStats

	// m is the attached metrics collector, or nil. Every hot-path hook
	// is guarded by one nil check, so a run without metrics pays
	// nothing else (see TestAllocateZeroAllocs).
	m *metrics.Collector

	// onDeliver, when set (tests), observes every delivered packet.
	onDeliver func(*packet)

	// moveHook, when set (tests), replaces the movement phase.
	moveHook func()
}

type runStats struct {
	// measuring is set while the measurement window is open; deliveries
	// then feed the latency statistics.
	measuring   bool
	windowStart int64
	// deliveredAtStart and generatedAtStart are flitsDeliveredEver and
	// flitsGenerated when the window opened.
	deliveredAtStart   int64
	generatedAtStart   int64
	packetsDelivered   int64
	packetsGenerated   int64
	flitsGenerated     int64
	sumLatency         float64 // cycles, generation -> tail delivery
	sumNetLatency      float64 // cycles, injection -> tail delivery
	sumHops            float64
	maxLatency         float64
	backlogStartFlits  int64
	backlogStartValid  bool
	totalDeliveredEver int64
	latencies          *stats.Histogram
}

// New validates cfg and builds an engine.
func New(cfg Config) (*Engine, error) {
	c, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	alg := c.vcAlgorithm()
	t := alg.Topology()
	vcs := alg.NumVCs()
	if vcs < 1 {
		return nil, fmt.Errorf("sim: algorithm reports %d virtual channels", vcs)
	}
	if err := c.validateAgainst(t); err != nil {
		return nil, err
	}
	ndim2 := 2 * t.NumDims()
	vport := ndim2*vcs + 1
	n := t.Nodes()
	depth := c.effectiveDepth()
	rcap := runCapacity(depth, c.minLength())
	e := &Engine{
		cfg:            c,
		topo:           t,
		alg:            alg,
		rng:            rand.New(rand.NewSource(c.Seed)),
		vcs:            vcs,
		vport:          vport,
		nphys:          ndim2 + 1,
		depth:          depth,
		worms:          vcs == 1 && depth == 1 && !c.StrictAdvance && !c.holdsWholePacket(),
		runs:           make([]run, n*vport*rcap),
		rcap:           rcap,
		bq:             make([]bufq, n*vport),
		meta:           make([]bufMeta, n*vport),
		busyBy:         make([]int32, n*vport),
		linkUsed:       make([]bool, n*(ndim2+1)),
		chanFlits:      make([]int64, n*(ndim2+1)),
		outDest:        make([]int32, n*vport),
		upOut:          make([]int32, n*vport),
		physOf:         make([]int32, n*vport),
		queues:         make([]pktRing, n),
		injUsed:        make([]bool, n*vport),
		nextGen:        make([]float64, n),
		inWork:         make([]bool, n*vport),
		flowing:        newBitset(n * vport),
		allocWork:      newBitset(n),
		lastFaultEpoch: int32(t.FaultEpoch()),
		script:         c.Script,
		waiting:        make([]int32, vport),
		freeCands:      make([]routing.Candidate, 0, ndim2*vcs),
		profCands:      make([]routing.Candidate, 0, ndim2*vcs),
		// Compile (or fetch the cached compilation of) the routing
		// relation into a flat (node, dst) candidate table. The table's
		// Candidate.Out indices use routing.OutIndex, which is exactly
		// this engine's port layout. nil means the relation is not
		// compilable; fillCandCache then evaluates it directly.
		table: routing.TableFor(alg),
		eval:  routing.NewEvaluator(alg),
	}
	if e.table == nil {
		// Direct evaluation fills each buffer's own candidate storage;
		// one arena with room for every virtual direction per buffer
		// keeps those fills allocation-free.
		arena := make([]routing.Candidate, n*vport*ndim2*vcs)
		for i := range e.meta {
			off := i * ndim2 * vcs
			e.meta[i].own = arena[off : off : off+ndim2*vcs]
		}
	}
	if c.StrictAdvance {
		e.lenStart = make([]int32, n*vport)
	}
	// Precompute the packet-length distribution's cumulative weights so
	// drawLength no longer sums the weight vector per draw.
	e.lenCum = make([]float64, len(c.LengthWeights))
	for i, w := range c.LengthWeights {
		e.lenTotal += w
		e.lenCum[i] = e.lenTotal
	}
	for i := range e.busyBy {
		e.busyBy[i] = -1
		e.outDest[i] = -1
		e.upOut[i] = -1
		e.physOf[i] = e.physIndex(int32(i))
		e.bq[i].out = -1
		e.meta[i].candPkt = -1
	}
	for v := 0; v < n; v++ {
		for di := 0; di < ndim2; di++ {
			d := topology.DirectionFromIndex(di)
			ch := topology.Channel{From: topology.NodeID(v), Dir: d}
			if !t.HasChannel(ch.From, d) {
				continue
			}
			to := t.ChannelTo(ch)
			for vc := 0; vc < vcs; vc++ {
				p := di*vcs + vc
				out := int32(v*vport + p)
				in := int32(int(to)*vport + p)
				e.outDest[out] = in
				e.upOut[in] = out
			}
		}
	}
	if c.Metrics != nil {
		e.m = c.Metrics
		e.m.Bind(t, e.nphys)
	}
	if c.FaultPlan != nil && len(c.FaultPlan.Events) > 0 {
		d, err := fault.NewDriver(t, c.FaultPlan)
		if err != nil {
			return nil, fmt.Errorf("sim: %w", err)
		}
		e.faults = d
	}
	if c.RecoveryThreshold > 0 {
		e.recov.every = c.RecoveryThreshold / 4
		if e.recov.every < 1 {
			e.recov.every = 1
		}
	}
	e.recObs, _ = c.Observer.(RecoveryObserver)
	if e.script == nil {
		// OfferedLoad flits/us/node = rate msgs/cycle * meanLen flits/msg
		// * 20 cycles/us.
		e.genRate = c.OfferedLoad / CyclesPerMicrosecond / c.MeanLength()
		for v := range e.nextGen {
			e.nextGen[v] = e.rng.ExpFloat64() / e.genRate
		}
	} else {
		s := append([]ScriptedMessage(nil), e.script...)
		sort.SliceStable(s, func(i, j int) bool { return s[i].Cycle < s[j].Cycle })
		e.script = s
	}
	return e, nil
}

// runCapacity bounds the runs a buffer of depth flits can hold when no
// packet is shorter than minLen flits: every run but the front and the
// back one is a whole packet, so runs r satisfy (r-2)*minLen + 2 <=
// depth. Whole-packet buffers thus keep a few runs, not a slot per flit.
func runCapacity(depth, minLen int) int {
	if depth <= 2 || minLen <= 1 {
		return depth
	}
	if r := (depth-2)/minLen + 2; r < depth {
		return r
	}
	return depth
}

// injectionIn returns the global input index of router v's injection
// channel buffer; the same port index is the ejection output.
func (e *Engine) injectionIn(v topology.NodeID) int32 { return int32(int(v)*e.vport + e.vport - 1) }

// ejectionOut returns the global output index of router v's ejection
// channel.
func (e *Engine) ejectionOut(v topology.NodeID) int32 { return e.injectionIn(v) }

// isInjection reports whether input in is its router's injection buffer.
func (e *Engine) isInjection(in int32) bool { return int(in)%e.vport == e.vport-1 }

// physIndex maps a global virtual output index to its physical link slot
// in linkUsed. New precomputes it into physOf; the hot path uses that.
func (e *Engine) physIndex(out int32) int32 {
	r := int(out) / e.vport
	p := int(out) % e.vport
	if p == e.vport-1 {
		return int32(r*e.nphys + e.nphys - 1) // ejection channel
	}
	return int32(r*e.nphys + p/e.vcs)
}

// runAt returns the i-th run of input buffer in, 0 being the front.
func (e *Engine) runAt(in int32, i int32) *run {
	j := e.bq[in].head + i
	if int(j) >= e.rcap {
		j -= int32(e.rcap)
	}
	return &e.runs[int(in)*e.rcap+int(j)]
}

// pushFlit appends flit idx of packet p to input buffer in, extending
// the back run when it ends with flit idx-1.
func (e *Engine) pushFlit(in int32, p *packet, idx int32) {
	q := &e.bq[in]
	seq := idx - p.shift
	q.flits++
	if q.runs > 0 {
		if r := e.runAt(in, q.runs-1); r.p == p && r.seq+r.n == seq {
			r.n++
			return
		}
	}
	q.runs++
	*e.runAt(in, q.runs-1) = run{p: p, n: 1, seq: seq}
}

// popFlit removes the front flit of input buffer in, advancing the
// ring past an emptied run; an emptied buffer stops flowing.
func (e *Engine) popFlit(in int32) {
	q := &e.bq[in]
	r := &e.runs[int(in)*e.rcap+int(q.head)]
	if q.flits--; q.flits == 0 {
		e.flowing.clear(in)
	}
	r.seq++
	if r.n--; r.n > 0 {
		return
	}
	if q.head++; int(q.head) == e.rcap {
		q.head = 0
	}
	q.runs--
}

// frontPkt returns the packet of input buffer in's front flit; the
// buffer must be nonempty.
func (e *Engine) frontPkt(in int32) *packet {
	return e.runs[int(in)*e.rcap+int(e.bq[in].head)].p
}

// frontFlit returns the index within its packet of input buffer in's
// front flit; the buffer must be nonempty.
func (e *Engine) frontFlit(in int32) int32 {
	r := &e.runs[int(in)*e.rcap+int(e.bq[in].head)]
	return r.seq + r.p.shift
}

// headerAt reports whether input buffer in's front flit is a header.
func (e *Engine) headerAt(in int32) bool {
	return e.bq[in].flits > 0 && e.frontFlit(in) == 0
}

// newPacket pops a recycled packet from the freelist, or allocates a
// fresh block. The packet is reset here, at acquisition — not at
// release — so pointers observers keep past delivery retain their final
// values until the struct is reissued.
func (e *Engine) newPacket() *packet {
	if n := len(e.freePkts); n > 0 {
		p := e.freePkts[n-1]
		e.freePkts = e.freePkts[:n-1]
		*p = packet{}
		return p
	}
	block := make([]packet, pktChunk)
	for i := 1; i < pktChunk; i++ {
		e.freePkts = append(e.freePkts, &block[i])
	}
	return &block[0]
}

// releasePacket returns a fully delivered packet to the freelist. The
// caller guarantees no flit or queue still references it.
func (e *Engine) releasePacket(p *packet) {
	e.freePkts = append(e.freePkts, p)
}

func (e *Engine) generate() {
	if e.script != nil {
		for e.scriptAt < len(e.script) && e.script[e.scriptAt].Cycle <= e.cycle {
			m := e.script[e.scriptAt]
			e.scriptAt++
			p := e.newPacket()
			p.id, p.src, p.dst, p.length = e.nextPktID, m.Src, m.Dst, m.Length
			p.firstDir, p.genCycle = m.FirstDir, e.cycle
			e.nextPktID++
			e.queues[m.Src].push(p)
			e.stats.packetsGenerated++
			e.stats.flitsGenerated += int64(p.length)
			e.inFlight++
		}
		return
	}
	now := float64(e.cycle)
	for v := range e.queues {
		for e.nextGen[v] <= now {
			gen := e.nextGen[v]
			e.nextGen[v] += e.rng.ExpFloat64() / e.genRate
			src := topology.NodeID(v)
			dst := e.cfg.Pattern.Dest(src, e.rng)
			if dst == src {
				continue // the pattern sends no traffic from this node
			}
			p := e.newPacket()
			p.id, p.src, p.dst = e.nextPktID, src, dst
			p.length = e.drawLength()
			p.genCycle = int64(gen)
			e.nextPktID++
			e.queues[v].push(p)
			e.stats.packetsGenerated++
			e.stats.flitsGenerated += int64(p.length)
			e.inFlight++
		}
	}
}

// drawLength samples the packet-length distribution from the cumulative
// weight table New precomputed; one uniform draw, no per-draw summing.
func (e *Engine) drawLength() int {
	if len(e.cfg.Lengths) == 1 {
		return e.cfg.Lengths[0]
	}
	r := e.rng.Float64() * e.lenTotal
	for i, c := range e.lenCum {
		if r < c {
			return e.cfg.Lengths[i]
		}
	}
	return e.cfg.Lengths[len(e.cfg.Lengths)-1]
}

// allocate runs the routing and output allocation phase: every waiting
// header flit requests a virtual output channel; per router, headers are
// served in the input selection policy's order and pick among the
// still-free permitted outputs with the output selection policy.
//
// Only routers on the allocation worklist are visited. A router leaves
// the worklist when none of its headers could possibly allocate before
// the next wake-up event (header arrival or output release at that
// router); see DESIGN.md, "Performance architecture", for the exact
// invariants.
func (e *Engine) allocate() {
	epoch := int32(e.topo.FaultEpoch())
	if epoch != e.lastFaultEpoch {
		// Fault state changed mid-run: every blocked header may have
		// gained or lost candidates, so rescan everything once. The
		// per-buffer candidate caches self-invalidate via candEpoch, and
		// the compiled route table is recompiled at the new epoch (nil
		// if compilation now fails — direct evaluation takes over).
		e.allocWork.setAll(e.topo.Nodes())
		e.lastFaultEpoch = epoch
		if e.table != nil {
			e.table = routing.TableFor(e.alg)
		}
	}
	e.allocWork.forEach(func(v int32) {
		if !e.allocateRouter(int(v), epoch) {
			e.allocWork.clear(v)
		}
	})
}

// allocateRouter serves router v's waiting headers and reports whether
// the router must stay on the allocation worklist (a pending header
// whose eligibility or patience is time-driven, or — under the
// random-input policy — any unallocated header, so the arbitration
// random stream matches a full rescan exactly).
func (e *Engine) allocateRouter(v int, epoch int32) bool {
	base := v * e.vport
	nw := 0
	keep := false
	for p := 0; p < e.vport; p++ {
		in := int32(base + p)
		if e.bq[in].out >= 0 || !e.headerAt(in) {
			continue
		}
		if e.cycle-e.meta[in].headArrival > e.cfg.RouterDelay {
			e.waiting[nw] = int32(base + p)
			nw++
		} else {
			keep = true // header present, router delay not yet expired
		}
	}
	if nw == 0 {
		return keep
	}
	w := e.waiting[:nw]
	switch e.cfg.Input {
	case LocalFCFS:
		// Stable insertion sort by arrival time: ties keep ascending
		// port order, matching the paper's local FCFS with port-index
		// tie-break. Inline to keep the hot path allocation-free.
		for i := 1; i < nw; i++ {
			x := w[i]
			key := e.meta[x].headArrival
			j := i
			for j > 0 && e.meta[w[j-1]].headArrival > key {
				w[j] = w[j-1]
				j--
			}
			w[j] = x
		}
	case RandomInput:
		e.rng.Shuffle(nw, func(i, j int) { w[i], w[j] = w[j], w[i] })
	case PortOrder:
		// Already in ascending port order.
	}
	blocked := 0
	for _, in := range w {
		b := &e.meta[in]
		pkt := e.frontPkt(in)
		if pkt.dst == topology.NodeID(v) {
			out := e.ejectionOut(topology.NodeID(v))
			if e.busyBy[out] < 0 {
				e.busyBy[out] = in
				e.bq[in].out = out
				b.holder = pkt
				e.flowing.set(in)
				if e.m != nil {
					e.m.Grants[v]++
					e.m.WaitCycles[v] += e.cycle - b.headArrival
				}
				if e.cfg.Observer != nil {
					e.cfg.Observer.Allocate(e.cycle, topology.NodeID(v), topology.Direction{}, 0, true)
				}
			} else {
				blocked++
				if e.m != nil {
					e.m.Denials[v]++
				}
			}
			continue
		}
		if b.candPkt != pkt.id || b.candEpoch != epoch {
			e.fillCandCache(v, in, pkt, epoch)
		}
		// Keep only candidates whose virtual output channel is free;
		// existence, virtual-channel validity and fault state were
		// filtered into the cache.
		free := e.freeCands[:0]
		for i := range b.cands {
			if e.busyBy[b.cands[i].Out] < 0 {
				free = append(free, b.cands[i])
			}
		}
		if len(free) == 0 {
			blocked++
			if e.m != nil {
				e.m.Denials[v]++
			}
			continue
		}
		// With misroute patience configured, prefer distance-reducing
		// ("profitable") outputs and permit a detour only after the
		// header has waited long enough.
		pick := free
		if e.cfg.MisrouteAfter > 0 {
			prof := e.profCands[:0]
			for i := range free {
				if free[i].Prof {
					prof = append(prof, free[i])
				}
			}
			if len(prof) > 0 {
				pick = prof
			} else if e.cycle-b.headArrival < e.cfg.MisrouteAfter {
				keep = true // wait for the patience to run out
				continue
			}
		}
		var c routing.Candidate
		switch e.cfg.Policy {
		case LowestDimension:
			c = pick[0] // candidates arrive in ascending dimension order
		case HighestDimension:
			c = pick[len(pick)-1]
		default:
			c = pick[e.rng.Intn(len(pick))]
		}
		e.busyBy[c.Out] = in
		e.bq[in].out = c.Out
		b.holder = pkt
		e.flowing.set(in)
		if e.m != nil {
			e.m.Grants[v]++
			e.m.WaitCycles[v] += e.cycle - b.headArrival
			if !c.Prof {
				// Candidate profitability is precomputed (route table) or
				// computed whenever a collector is attached (fallback), so
				// this counts true detours.
				e.m.Misroutes[v]++
			}
		}
		if e.cfg.Observer != nil {
			e.cfg.Observer.Allocate(e.cycle, topology.NodeID(v), c.Direction(), int(c.VC), false)
		}
	}
	if blocked > 0 && e.cfg.Input == RandomInput {
		// The random-input arbitration consumes one shuffle per visited
		// router with waiting headers per cycle; keep visiting so the
		// random stream is identical to a full rescan.
		keep = true
	}
	return keep
}

// fillCandCache refreshes the filtered routing candidate list for the
// header of packet pkt waiting at the front of input buffer in of router
// v. With a compiled route table this is a slice reference into the
// table's arena; otherwise (scripted first-hop restrictions, relations
// TableFor declines) the relation is evaluated directly and filtered
// into the buffer-owned storage by the same routing.Evaluator the
// table is compiled with. Either way the list keeps every candidate
// that exists, has a valid virtual channel, and is not faulty;
// per-cycle allocation then only checks output busyness.
func (e *Engine) fillCandCache(v int, in int32, pkt *packet, epoch int32) {
	b := &e.meta[in]
	injected := e.isInjection(in)
	cur := topology.NodeID(v)
	b.candPkt = pkt.id
	b.candEpoch = epoch
	if e.table != nil && !(injected && pkt.firstDir != nil) {
		b.cands = e.table.Lookup(cur, pkt.dst, injected)
		return
	}
	inp := routing.VCInjected
	if !injected {
		inp = routing.VCInPort{
			Dir: topology.DirectionFromIndex(int(in) % e.vport / e.vcs),
			VC:  int(in) % e.vport % e.vcs,
		}
	}
	raw := e.eval.Raw(cur, pkt.dst, inp)
	if injected && pkt.firstDir != nil {
		// Scripted first hop: honor it when offered.
		kept := raw[:0]
		for _, vd := range raw {
			if vd.Dir == *pkt.firstDir {
				kept = append(kept, vd)
			}
		}
		if len(kept) > 0 {
			raw = kept
		}
	}
	b.own = e.eval.Filter(cur, pkt.dst, raw, b.own[:0])
	b.cands = b.own
}

// pushWork schedules input buffer in for a movement attempt this cycle.
func (e *Engine) pushWork(in int32) {
	if in >= 0 && !e.inWork[in] {
		e.inWork[in] = true
		e.work = append(e.work, in)
	}
}

// pushAllocWork wakes router r's allocation scan: a header reached the
// front of one of its input buffers, or one of its outputs was released.
func (e *Engine) pushAllocWork(r int32) { e.allocWork.set(r) }

// seedMoveWork pushes every flowing input onto the movement worklist in
// the fixed arbitration order: routers ascending, physical directions
// ascending, injection channel last. Within each physical direction the
// preferred virtual channel is pushed last (the worklist pops LIFO) and
// the preference rotates with the cycle, a round-robin that prevents one
// virtual channel from starving the other.
func (e *Engine) seedMoveWork() {
	if e.vcs == 1 {
		// One virtual channel: ascending input order is exactly the
		// arbitration order.
		e.flowing.forEach(e.pushWork)
		return
	}
	buf := e.flowing.appendTo(e.flowScratch[:0])
	e.flowScratch = buf[:0]
	rot := int(e.cycle) % e.vcs
	for idx := 0; idx < len(buf); {
		i := buf[idx]
		port := int(i) % e.vport
		if port == e.vport-1 {
			e.pushWork(i)
			idx++
			continue
		}
		// Gather this physical direction's flowing virtual channels
		// (consecutive indices) and push them in rotated order.
		dirBase := i - int32(port%e.vcs)
		end := idx
		for end < len(buf) && buf[end] < dirBase+int32(e.vcs) {
			end++
		}
		for k := e.vcs - 1; k >= 0; k-- {
			want := dirBase + int32((rot+k)%e.vcs)
			for g := idx; g < end; g++ {
				if buf[g] == want {
					e.pushWork(want)
					break
				}
			}
		}
		idx = end
	}
}

// move runs the switch/link traversal phase. Each physical link carries
// at most one flit per cycle; virtual channels sharing a link are served
// in an order that rotates with the cycle count. In chained mode,
// freeing a buffer slot immediately lets the upstream flit advance into
// it (the worm moves as a synchronized train); in strict mode only space
// available at the start of the cycle counts.
func (e *Engine) move() {
	if e.cfg.StrictAdvance {
		for i := range e.bq {
			e.lenStart[i] = e.bq[i].flits
		}
	}
	// inWork is all-false here: the previous drain popped (and cleared)
	// every entry it pushed.
	e.work = e.work[:0]
	e.seedMoveWork()
	// Source-queue injections are attempted for every nonempty queue.
	for v := range e.queues {
		if e.queues[v].len() > 0 {
			e.tryInject(topology.NodeID(v))
		}
	}
	for len(e.work) > 0 {
		in := e.work[len(e.work)-1]
		e.work = e.work[:len(e.work)-1]
		e.inWork[in] = false
		e.advance(in)
	}
}

// tryInject moves the next flit of the source queue's head packet into
// the injection buffer, modeling the processor-to-router channel
// (bandwidth one flit per cycle).
func (e *Engine) tryInject(v topology.NodeID) {
	q := &e.queues[v]
	if q.len() == 0 {
		return
	}
	in := e.injectionIn(v)
	if e.injUsed[in] || !e.hasSpace(in) {
		return
	}
	p := q.front()
	head := p.flitsSent == 0
	e.pushFlit(in, p, p.flitsSent)
	p.flitsSent++
	if e.worms {
		p.rearAt = in
	}
	p.lastProgress = e.cycle
	e.injUsed[in] = true
	e.dirtyInj = append(e.dirtyInj, in)
	e.flitsInjectedEver++
	e.lastMove = e.cycle
	if int(p.flitsSent) == p.length {
		q.pop()
	}
	if e.m != nil {
		e.m.Occupancy[v]++
	}
	// Under the worm-level move a flit joining an allocated buffer is
	// a body flit: only worm fronts flow.
	if e.bq[in].out >= 0 && !e.worms {
		e.flowing.set(in)
	}
	if head {
		e.meta[in].headArrival = e.cycle
		p.injectCycle = e.cycle
		if e.bq[in].flits == 1 {
			e.pushAllocWork(int32(v))
		}
		if e.cfg.Observer != nil {
			e.cfg.Observer.Inject(e.cycle, p.src, p.dst, p.length)
		}
	}
}

func (e *Engine) hasSpace(in int32) bool {
	if e.cfg.StrictAdvance {
		return int(e.lenStart[in]) < e.depth && int(e.bq[in].flits) < e.depth
	}
	return int(e.bq[in].flits) < e.depth
}

// wholePacketAt applies store-and-forward's rule to input buffer in,
// whose front run is fr: the packet may leave once its tail flit has
// arrived — the front run ends with it, since a packet that may only
// leave a buffer whole never spans more than two buffers and so never
// meets itself in one. Injection buffers are exempt (the source queue
// is the source node's packet store). Wormhole and virtual cut-through
// forward at once.
func (e *Engine) wholePacketAt(in int32, fr *run) bool {
	return e.isInjection(in) || fr.seq+fr.p.shift+fr.n == int32(fr.p.length)
}

// advance attempts to move the worm whose front flit sits in input
// buffer in one step: across its allocated link into the downstream
// buffer, or into the destination processor through the ejection
// channel.
//
// A flit leaves the worm's rear: in itself when each buffer advances
// on its own, the worm's rearmost buffer under the worm-level move.
// There every buffer from the front back to the rear holds one flit of
// the worm, so one step shifts each flit forward a buffer, and only the
// front's destination, the rear and the packet change — the same state
// the chained flit-by-flit cascade reaches, at a cost independent of
// the worm's length.
func (e *Engine) advance(in int32) {
	out := e.bq[in].out
	if out < 0 || e.bq[in].flits == 0 {
		return
	}
	phys := e.physOf[out]
	if e.linkUsed[phys] {
		return
	}
	fr := &e.runs[int(in)*e.rcap+int(e.bq[in].head)]
	p := fr.p
	if e.cfg.holdsWholePacket() && !e.wholePacketAt(in, fr) {
		return
	}
	dest := e.outDest[out]
	if dest >= 0 && !e.hasSpace(dest) {
		return
	}
	idx := fr.seq + p.shift
	head, tail := idx == 0, idx == int32(p.length-1)
	rear, rearOut := in, out
	if e.worms {
		rear = p.rearAt
		rearOut = e.bq[rear].out
		tail = e.frontFlit(rear) == int32(p.length-1)
	}
	if e.cfg.Observer != nil {
		e.observeForward(in, rear, out, head, tail)
	}
	e.linkUsed[phys] = true
	e.dirtyLinks = append(e.dirtyLinks, phys)
	e.lastMove = e.cycle
	p.lastProgress = e.cycle
	if rear != in {
		// Every buffer between the front and the rear now holds the
		// flit that was behind it.
		p.shift++
	}
	if dest < 0 {
		// Ejection: the destination processor consumes immediately.
		e.flitsDeliveredEver++
		p.flitsDelivered++
	} else {
		e.pushFlit(dest, p, idx)
		if e.bq[dest].out >= 0 {
			e.flowing.set(dest)
		}
		if head {
			p.hops++
			e.meta[dest].headArrival = e.cycle
			if e.bq[dest].flits == 1 {
				e.pushAllocWork(int32(int(dest) / e.vport))
			}
			if e.worms {
				e.flowing.clear(in) // the front moved on
			}
		}
		if e.m != nil {
			e.m.Occupancy[int(dest)/e.vport]++
		}
	}
	if e.m != nil {
		e.m.Occupancy[int(rear)/e.vport]--
	}
	e.popFlit(rear)
	if e.worms {
		p.rearAt = e.outDest[rearOut]
	}
	if tail {
		// The tail passed: free the channel it crossed (which wakes the
		// router's allocation scan), and deliver a consumed packet.
		e.releaseCh(rear, rearOut, int32(p.length))
		if dest < 0 && rear == in {
			e.deliver(p)
		}
	}
	e.cascade(rear)
}

// observeForward reports the flits advance is about to move as Forward
// events: the front flit across out (unless it is ejected) and, under
// the worm-level move, each body flit across the output of the buffer
// it leaves, walking back from the front to the rear.
func (e *Engine) observeForward(in, rear, out int32, head, tail bool) {
	if e.outDest[out] >= 0 {
		e.emitForward(out, head, tail && rear == in)
	}
	for x := in; x != rear; {
		f := e.busyBy[e.upOut[x]]
		e.emitForward(e.bq[f].out, false, tail && f == rear)
		x = f
	}
}

func (e *Engine) emitForward(out int32, head, tail bool) {
	p := int(out) % e.vport
	e.cfg.Observer.Forward(e.cycle, topology.Channel{
		From: topology.NodeID(int(out) / e.vport),
		Dir:  topology.DirectionFromIndex(p / e.vcs),
	}, p%e.vcs, head, tail)
}

// releaseCh frees the virtual output channel held through input in
// once crossed flits of its worm have passed it — the whole packet
// after its tail, fewer when recovery aborts the worm — and credits
// them to the channel's flit count. The input stops flowing, and its
// router's allocation scan wakes: the freed output may unblock a
// waiting header, and a header queued behind the tail is now at the
// front.
func (e *Engine) releaseCh(in, out, crossed int32) {
	e.credit(in, out, crossed)
	e.busyBy[out] = -1
	e.bq[in].out = -1
	e.meta[in].holder, e.meta[in].settled = nil, 0
	e.flowing.clear(in)
	e.pushAllocWork(int32(int(in) / e.vport))
}

// credit records that crossed flits of the worm holding output out
// through input in have now crossed it in total.
func (e *Engine) credit(in, out, crossed int32) {
	m := &e.meta[in]
	e.chanFlits[e.physOf[out]] += int64(crossed - m.settled)
	m.settled = crossed
}

// settleHeld credits every held output with the flits its worm has
// carried across it so far, so chanFlits is exact at this instant: the
// worm's flits sent minus those still at or behind the holding buffer.
// Walking back from the holder, a buffer feeding the worm holds the
// worm's flits at its front, if any, up to the run with the tail.
func (e *Engine) settleHeld() {
	for u := range e.bq {
		out := e.bq[u].out
		if out < 0 {
			continue
		}
		p := e.meta[u].holder
		behind := int32(0)
		for x := int32(u); ; {
			if e.bq[x].flits > 0 && e.frontPkt(x) == p {
				r := e.runAt(x, 0)
				behind += r.n
				if r.seq+p.shift+r.n == int32(p.length) {
					break
				}
			}
			up := e.upOut[x]
			if up < 0 {
				break
			}
			if x = e.busyBy[up]; x < 0 || e.meta[x].holder != p {
				break
			}
		}
		e.credit(int32(u), out, p.flitsSent-behind)
	}
}

// cascade schedules the feeder of input buffer in, which may now have
// space to receive a flit (chained advance).
func (e *Engine) cascade(in int32) {
	if e.cfg.StrictAdvance {
		return
	}
	up := e.upOut[in]
	if up < 0 {
		// Of the buffers that hold flits, only injection buffers have
		// no upstream link: the source queue may inject.
		if e.isInjection(in) {
			e.tryInject(topology.NodeID(int(in) / e.vport))
		}
		return
	}
	if feeder := e.busyBy[up]; feeder >= 0 {
		e.pushWork(feeder)
	}
}

// deliver finalizes a packet whose tail was consumed.
func (e *Engine) deliver(p *packet) {
	p.deliverCycle = e.cycle
	e.inFlight--
	if e.onDeliver != nil {
		e.onDeliver(p)
	}
	if e.cfg.Observer != nil {
		e.cfg.Observer.Deliver(e.cycle, p.src, p.dst, p.deliverCycle-p.genCycle, p.hops)
	}
	e.stats.totalDeliveredEver++
	if e.m != nil {
		e.m.RecordLatency(float64(p.deliverCycle - p.genCycle))
		if e.faults != nil {
			// Attribute the delivery to the current fault epoch, so
			// campaigns can compare latency across fault-set changes.
			e.m.RecordEpochLatency(int(e.lastFaultEpoch), float64(p.deliverCycle-p.genCycle))
		}
	}
	if e.stats.measuring {
		e.stats.packetsDelivered++
		lat := float64(p.deliverCycle - p.genCycle)
		if e.stats.latencies == nil {
			// One-cycle (0.05 us) buckets keep percentiles sharp.
			e.stats.latencies = stats.NewHistogram(1)
		}
		e.stats.latencies.Add(lat)
		e.stats.sumLatency += lat
		e.stats.sumNetLatency += float64(p.deliverCycle - p.injectCycle)
		e.stats.sumHops += float64(p.hops)
		if lat > e.stats.maxLatency {
			e.stats.maxLatency = lat
		}
	}
	// Every consumer — observer callbacks, metrics, stats — has read the
	// packet; recycle it. Its flits are all consumed (the tail is the
	// last), so nothing in the network still points at it.
	e.releasePacket(p)
}

// backlogFlits returns the flits waiting in source queues (including the
// un-injected remainder of partially injected packets).
func (e *Engine) backlogFlits() int64 {
	var total int64
	for i := range e.queues {
		q := &e.queues[i]
		for j := 0; j < q.len(); j++ {
			p := q.at(j)
			total += int64(p.length - int(p.flitsSent))
		}
	}
	return total
}

// hottestChannel returns the network channel that carried the most
// flits during measurement and its utilization (flits per cycle).
// window is the measurement-window length the counts were collected
// over: cfg.MeasureCycles for stream runs, the full run length for
// scripted runs (which measure from cycle zero).
func (e *Engine) hottestChannel(window int64) (float64, topology.Channel) {
	var best int64 = -1
	bestIdx := -1
	for i, f := range e.chanFlits {
		if i%e.nphys == e.nphys-1 {
			continue // ejection channel
		}
		if f > best {
			best, bestIdx = f, i
		}
	}
	if bestIdx < 0 || window <= 0 {
		return 0, topology.Channel{}
	}
	ch := topology.Channel{
		From: topology.NodeID(bestIdx / e.nphys),
		Dir:  topology.DirectionFromIndex(bestIdx % e.nphys),
	}
	return float64(best) / float64(window), ch
}
