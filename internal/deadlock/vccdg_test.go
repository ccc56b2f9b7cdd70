package deadlock

import (
	"reflect"
	"testing"

	"turnmodel/internal/core"
	"turnmodel/internal/routing"
	"turnmodel/internal/topology"
)

// TestTorusDORDeadlocks: minimal dimension-order routing on a k-ary
// n-cube WITHOUT virtual channels has a cyclic channel dependency graph
// — the Section 4.2 impossibility ("for k-ary n-cubes with k > 4, it is
// impossible to construct deadlock-free routing algorithms that are
// minimal without adding extra channels"; the ring cycles appear for
// every k > 4, and already at k = 5 here).
func TestTorusDORDeadlocks(t *testing.T) {
	for _, topo := range []*topology.Topology{topology.NewTorus(5, 1), topology.NewTorus(5, 2), topology.NewTorus(8, 2)} {
		res := Check(routing.NewTorusDOR(topo))
		if res.DeadlockFree {
			t.Errorf("torus DOR on %v should not be deadlock free", topo)
		}
	}
}

// TestDatelineDORDeadlockFree: with two virtual channels and the
// dateline discipline, the VIRTUAL channel dependency graph is acyclic —
// the extra-channel approach of Dally and Seitz the paper contrasts the
// turn model with.
func TestDatelineDORDeadlockFree(t *testing.T) {
	for _, topo := range []*topology.Topology{topology.NewTorus(5, 1), topology.NewTorus(5, 2), topology.NewTorus(8, 2), topology.NewTorus(4, 3)} {
		res := CheckVC(routing.NewDatelineDOR(topo))
		if !res.DeadlockFree {
			t.Errorf("dateline DOR on %v: %v", topo, res)
		}
		if res.Edges == 0 {
			t.Errorf("dateline DOR on %v: empty dependency graph", topo)
		}
	}
}

// TestVCCDGMatchesCDGForSingleVC: for a single-virtual-channel relation
// the virtual CDG is the plain CDG the reference builder constructs.
func TestVCCDGMatchesCDGForSingleVC(t *testing.T) {
	topo := topology.NewMesh(5, 5)
	for _, alg := range []routing.Algorithm{
		routing.NewWestFirst(topo),
		routing.NewTurnGraphRouting(topo, core.WestFirstSet(), false),
		routing.NewFullyAdaptive(topo),
	} {
		plain := referenceCDG(alg)
		virtual := BuildVCCDG(routing.AsVC(alg))
		if !reflect.DeepEqual(plain.adj, virtual.adj) {
			t.Errorf("%s: edge lists differ", alg.Name())
		}
		if plain.NumEdges() != virtual.NumEdges() {
			t.Errorf("%s: edge counts differ: %d vs %d", alg.Name(), plain.NumEdges(), virtual.NumEdges())
		}
		if virtual.Acyclic() != plain.Acyclic() {
			t.Errorf("%s: acyclicity differs", alg.Name())
		}
	}
	// Fully adaptive stays cyclic through the adapter.
	if CheckVC(routing.AsVC(routing.NewFullyAdaptive(topo))).DeadlockFree {
		t.Error("fully adaptive should be cyclic under the VC view too")
	}
}

// TestVCWitnessCycleValid: a virtual-channel witness cycle is connected
// through the topology.
func TestVCWitnessCycleValid(t *testing.T) {
	topo := topology.NewTorus(6, 1)
	g := BuildVCCDG(routing.AsVC(routing.NewTorusDOR(topo)))
	cyc := g.FindVCCycle()
	if cyc == nil {
		t.Fatal("expected a cycle in the 6-ring")
	}
	for i, vc := range cyc {
		next := cyc[(i+1)%len(cyc)]
		if topo.ChannelTo(vc.Ch) != next.Ch.From {
			t.Fatalf("cycle not connected at %d: %v -> %v", i, vc, next)
		}
	}
	// In a single ring the minimal DOR cycle is the whole ring's worth
	// of channels in one direction.
	if len(cyc) != 6 {
		t.Errorf("ring dependency cycle length %d, want 6", len(cyc))
	}
}

// TestVCResultString.
func TestVCResultString(t *testing.T) {
	topo := topology.NewTorus(5, 1)
	good := CheckVC(routing.NewDatelineDOR(topo))
	bad := CheckVC(routing.AsVC(routing.NewTorusDOR(topo)))
	if good.String() == "" || bad.String() == "" {
		t.Error("empty result strings")
	}
	if good.String() == bad.String() {
		t.Error("result strings should differ")
	}
}

// TestDoubleYDeadlockFree: the fully adaptive double-y-channel relation
// of [18]'s program — every profitable direction always offered — has an
// acyclic VIRTUAL channel dependency graph, while the same adaptiveness
// without the extra channel (FullyAdaptive) is cyclic. The turn model's
// extra-channel premise, verified.
func TestDoubleYDeadlockFree(t *testing.T) {
	for _, dims := range [][2]int{{4, 4}, {8, 8}, {5, 9}} {
		topo := topology.NewMesh(dims[0], dims[1])
		res := CheckVC(routing.NewDoubleY(topo))
		if !res.DeadlockFree {
			t.Errorf("double-y on %v: %v", topo, res)
		}
		if CheckVC(routing.AsVC(routing.NewFullyAdaptive(topo))).DeadlockFree {
			t.Errorf("fully adaptive without extra channels must stay cyclic on %v", topo)
		}
	}
}
