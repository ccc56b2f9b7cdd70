package exp

import (
	"testing"

	"turnmodel/internal/routing"
)

// TestSweepCompileSharing pins the cross-leaf compile cache's whole
// point: a figure sweep compiles at most one route table per distinct
// relation — never one per leaf — and a second sweep of the same figure
// (fresh seed, so the sweep result cache cannot serve it) compiles
// nothing at all, because the shared instances, and the tables kept on
// them, persist across sweeps.
func TestSweepCompileSharing(t *testing.T) {
	f, ok := FigureByID("fig13")
	if !ok {
		t.Fatal("fig13 missing")
	}
	o := Options{Quick: true, Seed: 987001, Loads: []float64{0.5, 1.0}, Warmup: 64, Measure: 128}
	algs := len(f.Algs(f.Topology()))
	leaves := algs * len(o.Loads)
	if leaves <= algs {
		t.Fatalf("test needs more leaves (%d) than relations (%d) to distinguish per-leaf from per-relation compilation", leaves, algs)
	}
	c0 := routing.CompileCount()
	if _, err := RunFigure(f, o); err != nil {
		t.Fatal(err)
	}
	c1 := routing.CompileCount()
	// At most one compile per relation; possibly fewer when an earlier
	// test already interned some of fig13's relations.
	if d := c1 - c0; d > int64(algs) {
		t.Errorf("first sweep compiled %d tables over %d leaves, want at most one per relation (%d)", d, leaves, algs)
	}
	o.Seed = 987002 // new sweep-cache key: the leaves genuinely rerun
	if _, err := RunFigure(f, o); err != nil {
		t.Fatal(err)
	}
	if d := routing.CompileCount() - c1; d != 0 {
		t.Errorf("second sweep of the same figure compiled %d tables, want 0 (shared across sweeps)", d)
	}
}

// TestSharedTopologyHitBuildsNothing: the Figures table's topology
// constructors are memoized per shape, so a second
// SharedTopology(f.Topology) builds no topology — the constructor hands
// back the instance it built the first time, never a throwaway.
func TestSharedTopologyHitBuildsNothing(t *testing.T) {
	for _, f := range Figures {
		shared := SharedTopology(f.Topology)
		built := f.Topology()
		if again := SharedTopology(f.Topology); again != shared {
			t.Errorf("%s: second SharedTopology returned %p, want the shared %p", f.ID, again, shared)
		}
		if f.Topology() != built {
			t.Errorf("%s: the topology constructor built a fresh instance on a repeat call", f.ID)
		}
	}
}

// BenchmarkSweepCompiles measures a one-point figure sweep per op and
// reports compiles/op: with the cross-leaf cache the counter moves only
// on the first op (one compile per distinct relation), so the metric
// tends to zero instead of tracking the leaf count.
func BenchmarkSweepCompiles(b *testing.B) {
	f, ok := FigureByID("fig13")
	if !ok {
		b.Fatal("fig13 missing")
	}
	c0 := routing.CompileCount()
	for i := 0; i < b.N; i++ {
		o := Options{Quick: true, Seed: int64(990001 + i), Loads: []float64{0.75}, Warmup: 64, Measure: 128}
		if _, err := RunFigure(f, o); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(routing.CompileCount()-c0)/float64(b.N), "compiles/op")
}
