package sim_test

import (
	"testing"

	"turnmodel/internal/cli"
	"turnmodel/internal/core"
	"turnmodel/internal/fault"
	"turnmodel/internal/routing"
	"turnmodel/internal/sim"
	"turnmodel/internal/topology"
	"turnmodel/internal/traffic"
)

// fuzzSimTopology decodes a topology of at most 64 nodes: shape%3 picks
// a mesh, a torus or a hypercube, and size its lengths (2 to 5 nodes
// per dimension, two bits each, on a mesh; k from 2 to 5 on a torus)
// or its dimension (1 to 6, on a hypercube). Dimensions that would pass
// 64 nodes are dropped.
func fuzzSimTopology(shape, size uint8) *topology.Topology {
	nd := 1 + int(shape/3)%3
	switch shape % 3 {
	case 0:
		dims := []int{}
		nodes := 1
		for i := 0; i < nd; i++ {
			k := 2 + int(size>>(2*i))&3
			if nodes*k > 64 {
				break
			}
			dims, nodes = append(dims, k), nodes*k
		}
		return topology.NewMesh(dims...)
	case 1:
		k := 2 + int(size)%4
		for pow(k, nd) > 64 {
			nd--
		}
		return topology.NewTorus(k, nd)
	default:
		return topology.NewHypercube(1 + int(size)%6)
	}
}

func pow(k, n int) int {
	p := 1
	for i := 0; i < n; i++ {
		p *= k
	}
	return p
}

// fuzzSimRelations lists the relations valid on t: every registry name
// the command-line tools accept and, on 2D topologies, the minimal and
// nonminimal turn-graph relations of the turn set with the given key.
// Turn-graph routing depends on the arrival port, so the simulator
// evaluates it directly; the registry relations run on route tables.
func fuzzSimRelations(t *topology.Topology, key uint8) []routing.VCAlgorithm {
	var algs []routing.VCAlgorithm
	for _, name := range append(cli.AlgorithmNames(), "dateline-dor", "double-y") {
		if alg, err := cli.ParseVCAlgorithm(t, name); err == nil {
			algs = append(algs, alg)
		}
	}
	if t.NumDims() == 2 {
		set := core.SetFromKey2D(uint16(key))
		algs = append(algs,
			routing.AsVC(routing.NewTurnGraphRouting(t, set, true)),
			routing.AsVC(routing.NewTurnGraphRouting(t, set, false)),
		)
	}
	return algs
}

// fuzzSimConfig decodes a small topology, a relation valid on it,
// engine knobs and up to three channel faults striking mid-run into a
// short simulation with the invariant checker on. Each call builds a
// fresh topology, so faults never leak between runs.
//
// knobs packs switching (bits 0-1), buffer depth (2-3), output policy
// (4-5), input policy (6-7), misroute patience (8-11), offered load
// (12-14), whether faults heal (15) and the seed (16-31). faults%4 is
// the fault count; fault i takes bits 2+10i to 11+10i for its channel,
// strikes at cycle 100*(i+1) and, when faults heal, is repaired 300
// cycles later.
func fuzzSimConfig(shape, size, rel, key uint8, knobs, faults uint32) sim.Config {
	topo := fuzzSimTopology(shape, size)
	algs := fuzzSimRelations(topo, key)
	alg := algs[int(rel)%len(algs)]
	var chans []topology.Channel
	topo.Channels(func(c topology.Channel) { chans = append(chans, c) })
	plan := &fault.Plan{}
	for i := 0; i < int(faults%4) && len(chans) > 0; i++ {
		onset := int64(100 * (i + 1))
		repair := int64(-1)
		if knobs>>15&1 != 0 {
			repair = onset + 300
		}
		plan.AddChannelFault(chans[int(faults>>(2+10*i))&1023%len(chans)], onset, repair)
	}
	return sim.Config{
		VCAlgorithm:     alg,
		Pattern:         traffic.NewUniform(topo),
		OfferedLoad:     0.5 + 0.5*float64(knobs>>12&7),
		Lengths:         []int{2, 9},
		Switching:       sim.Switching(knobs % 3),
		BufferDepth:     1 + int(knobs>>2&3),
		Policy:          sim.OutputPolicy(knobs >> 4 & 3 % 3),
		Input:           sim.InputPolicy(knobs >> 6 & 3 % 3),
		MisrouteAfter:   int64(knobs >> 8 & 15 % 9),
		WarmupCycles:    200,
		MeasureCycles:   600,
		Seed:            int64(knobs >> 16),
		FaultPlan:       plan,
		CheckInvariants: true,
	}
}

// FuzzSmallSim runs a decoded small simulation (see fuzzSimConfig).
// The run must report no invariant violation and account for every
// generated packet: delivered, dropped or still in flight.
func FuzzSmallSim(f *testing.F) {
	f.Fuzz(func(t *testing.T, shape, size, rel, key uint8, knobs, faults uint32) {
		cfg := fuzzSimConfig(shape, size, rel, key, knobs, faults)
		topo, alg := cfg.VCAlgorithm.Topology(), cfg.VCAlgorithm
		res, err := sim.Run(cfg)
		if err != nil {
			t.Fatalf("%v, %s: %v", topo, alg.Name(), err)
		}
		if res.InvariantViolation != "" {
			t.Fatalf("%v, %s: invariant violation: %s", topo, alg.Name(), res.InvariantViolation)
		}
		if got := res.PacketsDeliveredTotal + res.PacketsDropped + res.PacketsInFlight; got != res.PacketsGeneratedTotal {
			t.Fatalf("%v, %s: delivered %d + dropped %d + in flight %d != generated %d", topo, alg.Name(),
				res.PacketsDeliveredTotal, res.PacketsDropped, res.PacketsInFlight, res.PacketsGeneratedTotal)
		}
	})
}

// FuzzMoveMatchesOracle runs a decoded small simulation (see
// fuzzSimConfig) through the engine and through the flit-level
// oracle of the movement phase. Both must give the same Result and,
// cycle by cycle, the same set of observer events. extra adds what
// FuzzSmallSim's knobs leave out: strict advance (bit 0), deadlock
// recovery with a small retry budget (bit 1) and router delay (bits
// 2-3).
func FuzzMoveMatchesOracle(f *testing.F) {
	f.Fuzz(func(t *testing.T, shape, size, rel, key uint8, knobs, faults uint32, extra uint8) {
		mk := func() sim.Config {
			cfg := fuzzSimConfig(shape, size, rel, key, knobs, faults)
			cfg.StrictAdvance = extra&1 != 0
			if extra&2 != 0 {
				cfg.RecoveryThreshold, cfg.RetryLimit, cfg.RetryBackoff = 40, 2, 10
			}
			cfg.RouterDelay = int64(extra >> 2 & 3)
			return cfg
		}
		d, err := sim.CompareWithFlitOracle(mk)
		if err != nil {
			t.Fatal(err)
		}
		if d != "" {
			cfg := mk()
			t.Fatalf("%v, %s: %s", cfg.VCAlgorithm.Topology(), cfg.VCAlgorithm.Name(), d)
		}
	})
}
