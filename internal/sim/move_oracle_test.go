package sim

import (
	"fmt"
	"sort"
	"testing"

	"turnmodel/internal/core"
	"turnmodel/internal/fault"
	"turnmodel/internal/routing"
	"turnmodel/internal/topology"
	"turnmodel/internal/traffic"
)

// This file keeps the flit-level movement phase the worm-level move
// replaced, as the oracle the engine is compared against: every
// flowing buffer is seeded onto the worklist, each attempt moves one
// flit, and a freed slot cascades to its feeder, which then moves its
// own front flit. Whole runs through it must equal runs through the
// engine's move: the same Result and, cycle by cycle, the same set of
// observer events.

// runFlitOracle runs cfg with the flit-level move. Each buffer then
// advances on its own, so the flowing set is every buffer with a flit
// and an allocated output.
func runFlitOracle(cfg Config) (Result, error) {
	e, err := New(cfg)
	if err != nil {
		return Result{}, err
	}
	e.worms = false
	e.moveHook = e.flitMove
	return e.run(), nil
}

// flitMove is the flit-level movement phase.
func (e *Engine) flitMove() {
	if e.cfg.StrictAdvance {
		for i := range e.bq {
			e.lenStart[i] = e.bq[i].flits
		}
	}
	e.work = e.work[:0]
	e.seedMoveWork()
	for v := range e.queues {
		if e.queues[v].len() > 0 {
			e.tryInject(topology.NodeID(v))
		}
	}
	for len(e.work) > 0 {
		in := e.work[len(e.work)-1]
		e.work = e.work[:len(e.work)-1]
		e.inWork[in] = false
		e.flitMoveOne(in)
	}
}

// flitMoveOne attempts to advance the front flit of input buffer in:
// across its allocated link into the downstream buffer, or into the
// destination processor through the ejection channel.
func (e *Engine) flitMoveOne(in int32) {
	if e.bq[in].flits == 0 || e.bq[in].out < 0 {
		return
	}
	out := e.bq[in].out
	phys := e.physOf[out]
	if e.linkUsed[phys] {
		return
	}
	p := e.frontPkt(in)
	if !e.flitReady(in, p) {
		return
	}
	idx := e.frontFlit(in)
	head, tail := idx == 0, idx == int32(p.length-1)
	dest := e.outDest[out]
	if dest < 0 {
		e.flitUseLink(phys)
		if e.m != nil {
			e.m.Occupancy[int(in)/e.vport]--
		}
		e.flitsDeliveredEver++
		e.popFlit(in)
		p.flitsDelivered++
		p.lastProgress = e.cycle
		if tail {
			e.releaseCh(in, out, int32(p.length))
			e.deliver(p)
		}
		e.flitCascade(in)
		return
	}
	if !e.hasSpace(dest) {
		return
	}
	e.flitUseLink(phys)
	if e.m != nil {
		e.m.Occupancy[int(in)/e.vport]--
		e.m.Occupancy[int(dest)/e.vport]++
	}
	if e.cfg.Observer != nil {
		e.emitForward(out, head, tail)
	}
	e.popFlit(in)
	e.pushFlit(dest, p, idx)
	if e.bq[dest].out >= 0 {
		e.flowing.set(dest)
	}
	p.lastProgress = e.cycle
	if head {
		e.meta[dest].headArrival = e.cycle
		p.hops++
		if e.bq[dest].flits == 1 {
			e.pushAllocWork(int32(int(dest) / e.vport))
		}
	}
	if tail {
		e.releaseCh(in, out, int32(p.length))
	}
	e.flitCascade(in)
}

// flitReady is store-and-forward's rule: the last buffered flit of
// the front packet p, scanning the buffer flit by flit from the back,
// must be its tail. Wormhole, cut-through and injection buffers
// forward at once.
func (e *Engine) flitReady(in int32, p *packet) bool {
	if e.cfg.Switching != StoreAndForward || int(in)%e.vport == e.vport-1 {
		return true
	}
	for i := e.bq[in].flits - 1; i >= 0; i-- {
		// Locate flit i of the buffer among the runs.
		k, r := i, int32(0)
		for k >= e.runAt(in, r).n {
			k -= e.runAt(in, r).n
			r++
		}
		if run := e.runAt(in, r); run.p == p {
			return run.seq+p.shift+k == int32(p.length-1)
		}
	}
	return false
}

func (e *Engine) flitUseLink(phys int32) {
	e.linkUsed[phys] = true
	e.dirtyLinks = append(e.dirtyLinks, phys)
	e.lastMove = e.cycle
}

// flitCascade schedules the feeder of input buffer in, which may now
// have space to receive a flit (chained advance).
func (e *Engine) flitCascade(in int32) {
	if e.cfg.StrictAdvance {
		return
	}
	if e.isInjection(in) {
		e.tryInject(topology.NodeID(int(in) / e.vport))
		return
	}
	up := e.upOut[in]
	if up < 0 {
		return
	}
	if feeder := e.busyBy[up]; feeder >= 0 {
		e.pushWork(feeder)
	}
}

// eventLog records every observer event of a run as text, grouped by
// cycle. Within a cycle events come in no specified order, so a
// comparison sorts each cycle's events.
type eventLog map[int64][]string

func (l eventLog) add(cycle int64, format string, args ...any) {
	l[cycle] = append(l[cycle], fmt.Sprintf(format, args...))
}

func (l eventLog) observer() ObserverFuncs {
	return ObserverFuncs{
		InjectFn: func(c int64, src, dst topology.NodeID, n int) { l.add(c, "inject %d>%d %d", src, dst, n) },
		AllocateFn: func(c int64, at topology.NodeID, d topology.Direction, vc int, ej bool) {
			l.add(c, "allocate %d %v %d %v", at, d, vc, ej)
		},
		ForwardFn: func(c int64, ch topology.Channel, vc int, head, tail bool) {
			l.add(c, "forward %v %d %v %v", ch, vc, head, tail)
		},
		DeliverFn: func(c int64, src, dst topology.NodeID, lat int64, hops int) {
			l.add(c, "deliver %d>%d %d %d", src, dst, lat, hops)
		},
		AbortFn: func(c int64, src, dst topology.NodeID, drained, released, retry int, dropped bool) {
			l.add(c, "abort %d>%d %d %d %d %v", src, dst, drained, released, retry, dropped)
		},
	}
}

// diff returns the first cycle whose event multisets differ, or "".
func (l eventLog) diff(o eventLog) string {
	cycles := map[int64]bool{}
	for c := range l {
		cycles[c] = true
	}
	for c := range o {
		cycles[c] = true
	}
	order := make([]int64, 0, len(cycles))
	for c := range cycles {
		order = append(order, c)
	}
	sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })
	for _, c := range order {
		a, b := append([]string(nil), l[c]...), append([]string(nil), o[c]...)
		sort.Strings(a)
		sort.Strings(b)
		if fmt.Sprint(a) != fmt.Sprint(b) {
			return fmt.Sprintf("cycle %d:\n engine: %v\n oracle: %v", c, a, b)
		}
	}
	return ""
}

// CompareWithFlitOracle runs mk's configuration through the engine and
// through the flit-level oracle, with an event recorder attached to
// each, and describes the first difference: in the Result or in a
// cycle's set of events. It returns "" when the runs agree.
func CompareWithFlitOracle(mk func() Config) (string, error) {
	var logs [2]eventLog
	var res [2]Result
	for i, run := range []func(Config) (Result, error){Run, runFlitOracle} {
		cfg := mk()
		logs[i] = eventLog{}
		cfg.Observer = logs[i].observer()
		var err error
		if res[i], err = run(cfg); err != nil {
			return "", err
		}
	}
	if a, b := fmt.Sprintf("%#v", res[0]), fmt.Sprintf("%#v", res[1]); a != b {
		return fmt.Sprintf("results differ:\n engine: %s\n oracle: %s", a, b), nil
	}
	if res[0].InvariantViolation != "" {
		return "invariant violation: " + res[0].InvariantViolation, nil
	}
	return logs[0].diff(logs[1]), nil
}

// TestMoveMatchesOracle: the engine's move gives whole runs identical
// to the flit-level oracle's across the configuration classes: single-
// VC wormhole under the paper's figure relations (the worm-level move),
// deep buffers, store-and-forward, virtual cut-through, strict advance,
// multi-VC dateline and double-y routing, random policies with
// misrouting, router delay, direct evaluation, and mid-run faults with
// deadlock recovery.
func TestMoveMatchesOracle(t *testing.T) {
	mesh := func() *topology.Topology { return topology.NewMesh(8, 8) }
	base := func(t *topology.Topology, alg routing.Algorithm, pat traffic.Pattern, load float64) Config {
		return Config{
			Algorithm: alg, Pattern: pat, OfferedLoad: load,
			WarmupCycles: 300, MeasureCycles: 1200, Seed: 5, CheckInvariants: true,
		}
	}
	cases := []struct {
		name string
		mk   func() Config
		// worms is whether the case runs the worm-level move.
		worms bool
	}{
		{"west-first-transpose", func() Config {
			t := mesh()
			return base(t, routing.NewWestFirst(t), traffic.NewMeshTranspose(t), 2.0)
		}, true},
		{"negative-first-uniform-saturated", func() Config {
			t := mesh()
			return base(t, routing.NewNegativeFirst(t), traffic.NewUniform(t), 4.0)
		}, true},
		{"p-cube-reverse-flip", func() Config {
			t := topology.NewHypercube(6)
			return base(t, routing.NewPCube(t), traffic.NewReverseFlip(t), 3.0)
		}, true},
		{"random-policy-misroute-delay", func() Config {
			t := mesh()
			c := base(t, routing.NewFullyAdaptive(t), traffic.NewUniform(t), 3.0)
			c.Policy, c.Input, c.MisrouteAfter, c.RouterDelay = RandomPolicy, RandomInput, 4, 1
			return c
		}, true},
		{"turn-graph-direct", func() Config {
			t := mesh()
			return base(t, routing.NewTurnGraphRouting(t, core.WestFirstSet(), false), traffic.NewUniform(t), 2.5)
		}, true},
		{"depth-3", func() Config {
			t := mesh()
			c := base(t, routing.NewWestFirst(t), traffic.NewMeshTranspose(t), 2.5)
			c.BufferDepth = 3
			return c
		}, false},
		{"saf", func() Config {
			t := mesh()
			c := base(t, routing.NewNegativeFirst(t), traffic.NewUniform(t), 2.0)
			c.Switching, c.Lengths = StoreAndForward, []int{3, 9}
			return c
		}, false},
		{"vct", func() Config {
			t := mesh()
			c := base(t, routing.NewNegativeFirst(t), traffic.NewUniform(t), 2.0)
			c.Switching, c.Lengths = VirtualCutThrough, []int{3, 9}
			return c
		}, false},
		{"strict", func() Config {
			t := mesh()
			c := base(t, routing.NewWestFirst(t), traffic.NewUniform(t), 2.0)
			c.StrictAdvance = true
			return c
		}, false},
		{"dateline-torus", func() Config {
			t := topology.NewTorus(6, 2)
			c := base(t, nil, traffic.NewUniform(t), 3.0)
			c.Algorithm, c.VCAlgorithm = nil, routing.NewDatelineDOR(t)
			return c
		}, false},
		{"double-y", func() Config {
			t := mesh()
			c := base(t, nil, traffic.NewUniform(t), 3.0)
			c.Algorithm, c.VCAlgorithm = nil, routing.NewDoubleY(t)
			return c
		}, false},
		{"faults-recovery", func() Config {
			t := mesh()
			c := base(t, routing.NewFullyAdaptive(t), traffic.NewUniform(t), 3.0)
			plan := &fault.Plan{}
			plan.AddChannelFault(topology.Channel{From: 27, Dir: topology.Direction{Dim: 0, Pos: true}}, 400, 900)
			plan.AddChannelFault(topology.Channel{From: 36, Dir: topology.Direction{Dim: 1}}, 500, -1)
			c.FaultPlan, c.RecoveryThreshold, c.RetryLimit, c.RetryBackoff = plan, 60, 2, 20
			return c
		}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e, err := New(tc.mk())
			if err != nil {
				t.Fatal(err)
			}
			if e.worms != tc.worms {
				t.Fatalf("worm-level move = %v, want %v", e.worms, tc.worms)
			}
			d, err := CompareWithFlitOracle(tc.mk)
			if err != nil {
				t.Fatal(err)
			}
			if d != "" {
				t.Fatal(d)
			}
		})
	}
}
