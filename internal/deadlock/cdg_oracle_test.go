package deadlock

import (
	"reflect"
	"testing"

	"turnmodel/internal/core"
	"turnmodel/internal/routing"
	"turnmodel/internal/topology"
)

// referenceCDG is the single-channel CDG builder that BuildCDG used to
// be before it became the one-channel view of BuildVCCDG: the same
// feasible-state propagation over physical channels, evaluating the
// plain relation directly. It is kept as the oracle the merged builder
// is checked against.
func referenceCDG(alg routing.Algorithm) *Graph {
	t := alg.Topology()
	g := newGraph(t, 1)
	n := t.NumChannelIDs()
	addEdge := func(c1, c2 int) {
		for _, e := range g.adj[c1] {
			if int(e) == c2 {
				return
			}
		}
		g.adj[c1] = append(g.adj[c1], int32(c2))
		g.edges++
	}

	reachable := make([]bool, n)
	queue := make([]int, 0, n)
	var buf []topology.Direction
	for dst := topology.NodeID(0); dst < topology.NodeID(t.Nodes()); dst++ {
		for i := range reachable {
			reachable[i] = false
		}
		queue = queue[:0]
		for src := topology.NodeID(0); src < topology.NodeID(t.Nodes()); src++ {
			if src == dst {
				continue
			}
			buf = alg.Candidates(src, dst, routing.Injected, buf[:0])
			for _, d := range buf {
				ch := topology.Channel{From: src, Dir: d}
				if !t.Enabled(ch) {
					continue
				}
				id := t.ChannelID(ch)
				if !reachable[id] {
					reachable[id] = true
					queue = append(queue, id)
				}
			}
		}
		for len(queue) > 0 {
			id := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			c1 := t.ChannelFromID(id)
			v := t.ChannelTo(c1)
			if v == dst {
				continue
			}
			buf = alg.Candidates(v, dst, routing.Arrived(c1.Dir), buf[:0])
			for _, d := range buf {
				ch := topology.Channel{From: v, Dir: d}
				if !t.Enabled(ch) {
					continue
				}
				id2 := t.ChannelID(ch)
				addEdge(id, id2)
				if !reachable[id2] {
					reachable[id2] = true
					queue = append(queue, id2)
				}
			}
		}
	}
	return g
}

// oracleRelations lists the relations the merged builder is checked
// on: the registry relations valid on t, turn-graph routing (minimal
// and nonminimal) on 2D topologies and, on tori, TorusDOR and
// WrapFirstHop.
func oracleRelations(t *topology.Topology) []routing.Algorithm {
	algs := []routing.Algorithm{
		routing.NewDimensionOrder(t),
		routing.NewNegativeFirst(t),
		routing.NewABONF(t, 0),
		routing.NewABOPL(t, 1),
		routing.NewFullyAdaptive(t),
	}
	if t.NumDims() == 2 {
		algs = append(algs,
			routing.NewWestFirst(t),
			routing.NewNorthLast(t),
			routing.NewTurnGraphRouting(t, core.WestFirstSet(), true),
			routing.NewTurnGraphRouting(t, core.WestFirstSet(), false),
			routing.NewTurnGraphRouting(t, core.NegativeFirstSet(2), false),
		)
	}
	if t.Kind() == topology.KindTorus {
		algs = append(algs,
			routing.NewTorusDOR(t),
			routing.NewNegativeFirstTorus(t),
			routing.NewWrapFirstHop(routing.NewNegativeFirst(t)),
			routing.NewWrapFirstHop(routing.NewABONF(t, 1)),
		)
	}
	return algs
}

// TestBuildCDGMatchesReference: the merged builder's one-channel view
// reproduces the reference builder exactly — every edge list in order,
// the edge count and the FindCycle witness — on fault-free and faulty
// meshes, hypercubes and tori.
func TestBuildCDGMatchesReference(t *testing.T) {
	for _, tc := range []struct {
		name   string
		topo   func() *topology.Topology
		faults []topology.Channel
	}{
		{"mesh6x5", func() *topology.Topology { return topology.NewMesh(6, 5) }, nil},
		{"mesh6x5-faulty", func() *topology.Topology { return topology.NewMesh(6, 5) }, []topology.Channel{
			{From: 6*2 + 2, Dir: topology.Direction{Dim: 0, Pos: true}},
			{From: 6*3 + 4, Dir: topology.Direction{Dim: 1}},
			{From: 6*1 + 1, Dir: topology.Direction{Dim: 1, Pos: true}},
		}},
		{"cube4", func() *topology.Topology { return topology.NewHypercube(4) }, nil},
		{"cube4-faulty", func() *topology.Topology { return topology.NewHypercube(4) }, []topology.Channel{
			{From: 5, Dir: topology.Direction{Dim: 1, Pos: true}},
			{From: 0, Dir: topology.Direction{Dim: 3, Pos: true}},
		}},
		{"torus5x2", func() *topology.Topology { return topology.NewTorus(5, 2) }, nil},
		{"torus5x2-faulty", func() *topology.Topology { return topology.NewTorus(5, 2) }, []topology.Channel{
			{From: 7, Dir: topology.Direction{Dim: 0, Pos: true}},
			{From: 4, Dir: topology.Direction{Dim: 0, Pos: true}},
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			topo := tc.topo()
			for _, f := range tc.faults {
				if err := topo.DisableChannel(f); err != nil {
					t.Fatal(err)
				}
			}
			for _, alg := range oracleRelations(topo) {
				want, got := referenceCDG(alg), BuildCDG(alg)
				if !reflect.DeepEqual(got.adj, want.adj) {
					t.Errorf("%s: edge lists differ from the reference builder", alg.Name())
				}
				if got.NumEdges() != want.NumEdges() {
					t.Errorf("%s: %d edges, reference %d", alg.Name(), got.NumEdges(), want.NumEdges())
				}
				if gc, wc := got.FindCycle(), want.FindCycle(); !reflect.DeepEqual(gc, wc) {
					t.Errorf("%s: witness %v, reference %v", alg.Name(), gc, wc)
				}
			}
		})
	}
}
