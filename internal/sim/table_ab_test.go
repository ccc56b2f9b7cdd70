package sim

import (
	"testing"

	"turnmodel/internal/routing"
	"turnmodel/internal/topology"
	"turnmodel/internal/traffic"
)

func recordDeliveries(dst *[]deliveryEvent) Observer {
	return ObserverFuncs{DeliverFn: func(cycle int64, src, dst2 topology.NodeID, lat int64, hops int) {
		*dst = append(*dst, deliveryEvent{cycle, src, dst2, lat, hops})
	}}
}

// newAB builds the engine for one leg of a table/direct comparison.
// The direct leg drops the compiled route table after construction,
// which is the engine's own fallback for relations routing.TableFor
// declines to compile; the table leg insists that a table was built,
// so the comparison is never direct against direct.
func newAB(t *testing.T, cfg Config, direct bool) *Engine {
	t.Helper()
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if e.table == nil {
		t.Fatal("routing.TableFor declined the relation; nothing to compare")
	}
	if direct {
		e.table = nil
	}
	return e
}

// runAB runs the same configuration through the compiled route table
// and through direct evaluation and asserts bit-identical Results and
// delivery event streams.
func runAB(t *testing.T, mk func() Config) {
	t.Helper()
	var events [2][]deliveryEvent
	var results [2]Result
	for i, direct := range []bool{false, true} {
		cfg := mk()
		cfg.Observer = recordDeliveries(&events[i])
		results[i] = newAB(t, cfg, direct).run()
	}
	if results[0] != results[1] {
		t.Errorf("results differ:\n tables: %+v\n direct: %+v", results[0], results[1])
	}
	if len(events[0]) == 0 {
		t.Fatal("no deliveries; test would be vacuous")
	}
	if len(events[0]) != len(events[1]) {
		t.Fatalf("delivery counts differ: tables %d, direct %d", len(events[0]), len(events[1]))
	}
	for i := range events[0] {
		if events[0][i] != events[1][i] {
			t.Fatalf("delivery %d differs: tables %+v, direct %+v", i, events[0][i], events[1][i])
		}
	}
}

// TestTableABDeterminism: compiled route tables are an optimization,
// not a behavior change — every configuration class the engine
// distinguishes (stochastic single-VC, random policy with misrouting,
// multi-VC dateline torus routing, scripted first-hop restrictions)
// produces bit-identical whole runs through the table and through
// direct evaluation of the relation.
func TestTableABDeterminism(t *testing.T) {
	t.Run("stochastic-mesh", func(t *testing.T) {
		runAB(t, func() Config {
			topo := topology.NewMesh(8, 8)
			return Config{
				Algorithm:     routing.NewWestFirst(topo),
				Pattern:       traffic.NewUniform(topo),
				OfferedLoad:   3.0,
				WarmupCycles:  500,
				MeasureCycles: 1500,
				Seed:          11,
			}
		})
	})
	// RandomPolicy draws from the shared RNG per routed header and
	// MisrouteAfter reads the candidates' profitability bits, so this
	// covers RNG-stream identity and the Prof field.
	t.Run("random-policy-misroute", func(t *testing.T) {
		runAB(t, func() Config {
			topo := topology.NewMesh(6, 6)
			return Config{
				Algorithm:     routing.NewFullyAdaptive(topo),
				Pattern:       traffic.NewMeshTranspose(topo),
				OfferedLoad:   4.0,
				Policy:        RandomPolicy,
				MisrouteAfter: 3,
				WarmupCycles:  500,
				MeasureCycles: 1500,
				Seed:          5,
			}
		})
	})
	t.Run("dateline-torus-vc", func(t *testing.T) {
		runAB(t, func() Config {
			topo := topology.NewTorus(6, 2)
			return Config{
				VCAlgorithm:   routing.NewDatelineDOR(topo),
				Pattern:       traffic.NewUniform(topo),
				OfferedLoad:   3.0,
				WarmupCycles:  500,
				MeasureCycles: 1500,
				Seed:          9,
			}
		})
	})
	// FirstDir headers bypass the table at injection (the restriction is
	// per-packet, not per-pair), then use it downstream.
	t.Run("scripted-first-dir", func(t *testing.T) {
		east := topology.Direction{Dim: 0, Pos: true}
		north := topology.Direction{Dim: 1, Pos: true}
		runAB(t, func() Config {
			topo := topology.NewMesh(5, 5)
			return Config{
				Algorithm: routing.NewFullyAdaptive(topo),
				Script: []ScriptedMessage{
					{Cycle: 0, Src: topo.ID(topology.Coord{0, 0}), Dst: topo.ID(topology.Coord{4, 4}), Length: 12, FirstDir: &north},
					{Cycle: 0, Src: topo.ID(topology.Coord{0, 4}), Dst: topo.ID(topology.Coord{4, 0}), Length: 12, FirstDir: &east},
					{Cycle: 3, Src: topo.ID(topology.Coord{2, 2}), Dst: topo.ID(topology.Coord{0, 0}), Length: 20},
				},
			}
		})
	})
}

// TestTableABDeterminismUnderFault: a channel failure mid-run triggers
// the fault-epoch invalidation (recompile on the table path, candidate
// cache flush on both), and the two paths must still agree cycle for
// cycle.
func TestTableABDeterminismUnderFault(t *testing.T) {
	const (
		cycles     = 2000
		faultCycle = 300
	)
	var events [2][]deliveryEvent
	var delivered [2]int64
	for i, direct := range []bool{false, true} {
		topo := topology.NewMesh(8, 8)
		broken := topology.Channel{From: topo.ID(topology.Coord{4, 4}), Dir: topology.Direction{Dim: 1, Pos: true}}
		e := newAB(t, Config{
			Algorithm:     routing.NewNegativeFirst(topo),
			Pattern:       traffic.NewUniform(topo),
			OfferedLoad:   2.0,
			WarmupCycles:  1 << 30,
			MeasureCycles: 1,
			Seed:          17,
			Observer:      recordDeliveries(&events[i]),
		}, direct)
		for e.cycle < cycles {
			if e.cycle == faultCycle {
				topo.DisableChannel(broken)
			}
			e.step()
			e.cycle++
		}
		if !direct && e.table == nil {
			t.Fatal("table leg lost its route table at the fault epoch")
		}
		delivered[i] = e.stats.totalDeliveredEver
		topo.EnableChannel(broken)
	}
	if delivered[0] == 0 {
		t.Fatal("no deliveries; test would be vacuous")
	}
	if delivered[0] != delivered[1] {
		t.Fatalf("delivered counts differ: tables %d, direct %d", delivered[0], delivered[1])
	}
	if len(events[0]) != len(events[1]) {
		t.Fatalf("delivery streams differ in length: %d vs %d", len(events[0]), len(events[1]))
	}
	for i := range events[0] {
		if events[0][i] != events[1][i] {
			t.Fatalf("delivery %d differs: tables %+v, direct %+v", i, events[0][i], events[1][i])
		}
	}
}
