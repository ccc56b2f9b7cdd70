package routing

import (
	"testing"

	"turnmodel/internal/topology"
)

// TestDatelineDORDelivery: minimal dimension-order torus routing with
// two virtual channels delivers every pair along shortest torus paths.
func TestDatelineDORDelivery(t *testing.T) {
	for _, topo := range []*topology.Topology{topology.NewTorus(5, 2), topology.NewTorus(4, 3)} {
		alg := NewDatelineDOR(topo)
		for src := topology.NodeID(0); src < topology.NodeID(topo.Nodes()); src++ {
			for dst := topology.NodeID(0); dst < topology.NodeID(topo.Nodes()); dst++ {
				if src == dst {
					continue
				}
				path, err := WalkVC(alg, src, dst)
				if err != nil {
					t.Fatalf("%v %d->%d: %v", topo, src, dst, err)
				}
				if got, want := len(path)-1, topo.Distance(src, dst); got != want {
					t.Fatalf("%v %d->%d: %d hops, want %d", topo, src, dst, got, want)
				}
			}
		}
	}
}

// TestDatelineVCTransition: a wrapping route uses VC 1 up to and
// including the wraparound hop, VC 0 after; a non-wrapping route stays
// on VC 0.
func TestDatelineVCTransition(t *testing.T) {
	topo := topology.NewTorus(8, 1)
	alg := NewDatelineDOR(topo)
	// From 6 to 1 the shortest way is +: 6 -> 7 -> (wrap) 0 -> 1.
	cases := []struct {
		cur    topology.NodeID
		wantVC int
	}{
		{6, 1}, // dateline (7 -> 0) ahead
		{7, 1}, // the wraparound hop itself
		{0, 0}, // crossed; class 0
	}
	for _, c := range cases {
		cands := alg.CandidatesVC(c.cur, 1, VCInjected, nil)
		if len(cands) != 1 {
			t.Fatalf("dimension-order must offer one candidate, got %v", cands)
		}
		if cands[0].VC != c.wantVC {
			t.Errorf("at node %d: vc %d, want %d", c.cur, cands[0].VC, c.wantVC)
		}
	}
	// Non-wrapping route 1 -> 3 stays on class 0.
	cands := alg.CandidatesVC(1, 3, VCInjected, nil)
	if cands[0].VC != 0 {
		t.Errorf("non-wrapping hop on vc %d, want 0", cands[0].VC)
	}
}

// TestTorusDORUsesWraparounds: the (deadlock-prone) torus DOR takes the
// shorter way around each ring.
func TestTorusDORUsesWraparounds(t *testing.T) {
	topo := topology.NewTorus(8, 2)
	alg := NewTorusDOR(topo)
	src := topo.ID(topology.Coord{7, 0})
	dst := topo.ID(topology.Coord{1, 0})
	path, err := Walk(alg, src, dst, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(path)-1 != 2 {
		t.Errorf("path took %d hops, want 2 via wraparound", len(path)-1)
	}
}

// TestAsVCAdapter: a plain algorithm adapts to one virtual channel with
// identical candidates.
func TestAsVCAdapter(t *testing.T) {
	topo := topology.NewMesh(5, 5)
	plain := NewWestFirst(topo)
	vc := AsVC(plain)
	if vc.NumVCs() != 1 {
		t.Fatalf("NumVCs = %d", vc.NumVCs())
	}
	if vc.Name() != plain.Name() {
		t.Fatalf("name mismatch")
	}
	for src := topology.NodeID(0); src < topology.NodeID(topo.Nodes()); src++ {
		for dst := topology.NodeID(0); dst < topology.NodeID(topo.Nodes()); dst++ {
			if src == dst {
				continue
			}
			a := CandidateList(plain, src, dst, Injected)
			b := vc.CandidatesVC(src, dst, VCInjected, nil)
			if len(a) != len(b) {
				t.Fatalf("%d->%d: %v vs %v", src, dst, a, b)
			}
			for i := range a {
				if b[i].Dir != a[i] || b[i].VC != 0 {
					t.Fatalf("%d->%d: %v vs %v", src, dst, a, b)
				}
			}
		}
	}
	// AsVC of something already VC-aware returns it unchanged: the
	// adapter itself still implements Algorithm, so wrapping twice must
	// not nest.
	if again := AsVC(vc.(Algorithm)); again != vc {
		t.Error("AsVC re-wrapped an existing VCAlgorithm")
	}
}

// TestDatelineDORPanics on a mesh.
func TestDatelineDORPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewDatelineDOR(topology.NewMesh(4, 4))
}

// TestEvaluatorMatchesDirect: the evaluator's filtered candidates equal
// the test oracle's direct evaluation, whose profitability compares
// full distances, for a relation offering every direction (so hops
// against the shortest way are covered, across the tied halves of an
// even ring too) and for plain relations seen through AsVC.
func TestEvaluatorMatchesDirect(t *testing.T) {
	for _, topo := range []*topology.Topology{
		topology.NewMesh(4, 3),
		topology.NewTorus(4, 2),
		topology.NewTorus(5, 1),
		topology.NewHypercube(3),
	} {
		for _, alg := range []VCAlgorithm{detourVC{topo}, AsVC(NewFullyAdaptive(topo)), AsVC(NewNegativeFirst(topo))} {
			ev := NewEvaluator(alg)
			var got []Candidate
			for cur := topology.NodeID(0); int(cur) < topo.Nodes(); cur++ {
				for dst := topology.NodeID(0); int(dst) < topo.Nodes(); dst++ {
					if cur == dst {
						continue
					}
					got = ev.Candidates(cur, dst, VCInjected, got[:0])
					if want := directCands(alg, cur, dst, VCInjected); !candsEqual(got, want) {
						t.Fatalf("%v, %s, %d->%d: %v, want %v", topo, alg.Name(), cur, dst, got, want)
					}
				}
			}
		}
	}
}

// TestEvaluatorAllocs: once its scratch has grown, an evaluator of a
// plain relation seen through AsVC allocates nothing per evaluation.
func TestEvaluatorAllocs(t *testing.T) {
	topo := topology.NewMesh(8, 8)
	ev := NewEvaluator(AsVC(NewFullyAdaptive(topo)))
	out := make([]Candidate, 0, 4)
	in := VCArrived(VirtualDirection{Dir: topology.Direction{Dim: 0, Pos: true}})
	if avg := testing.AllocsPerRun(100, func() { out = ev.Candidates(9, 63, in, out[:0]) }); avg != 0 {
		t.Errorf("%.1f allocations per evaluation, want 0", avg)
	}
}
