package routing

import (
	"math/rand"
	"testing"

	"turnmodel/internal/topology"
)

// TestWrapFirstHopDelivery: every pair is delivered; a wraparound is
// only ever taken on the first hop.
func TestWrapFirstHopDelivery(t *testing.T) {
	topo := topology.NewTorus(6, 2)
	alg := NewWrapFirstHop(NewNegativeFirst(topo))
	rng := rand.New(rand.NewSource(8))
	sel := func(_, _ topology.NodeID, cands []topology.Direction) topology.Direction {
		return cands[rng.Intn(len(cands))]
	}
	wrapUsed := 0
	for src := topology.NodeID(0); src < topology.NodeID(topo.Nodes()); src++ {
		for dst := topology.NodeID(0); dst < topology.NodeID(topo.Nodes()); dst++ {
			if src == dst {
				continue
			}
			path, err := Walk(alg, src, dst, sel)
			if err != nil {
				t.Fatalf("%d->%d: %v", src, dst, err)
			}
			for i := 1; i < len(path); i++ {
				cross := false
				for dim := 0; dim < 2; dim++ {
					a, b := topo.CoordOf(path[i-1], dim), topo.CoordOf(path[i], dim)
					if a != b && abs(a-b) != 1 {
						cross = true
					}
				}
				if cross {
					wrapUsed++
					if i != 1 {
						t.Fatalf("wraparound used on hop %d of %v", i, path)
					}
				}
			}
		}
	}
	if wrapUsed == 0 {
		t.Error("no pair ever used a wraparound channel; the extension is inert")
	}
}

// TestWrapFirstHopShortensPaths: for nodes on opposite edges the
// wraparound must make paths shorter than the pure mesh route.
func TestWrapFirstHopShortensPaths(t *testing.T) {
	topo := topology.NewTorus(8, 2)
	alg := NewWrapFirstHop(NewNegativeFirst(topo))
	src := topo.ID(topology.Coord{7, 3})
	dst := topo.ID(topology.Coord{0, 3})
	cands := CandidateList(alg, src, dst, Injected)
	hasWrap := false
	for _, d := range cands {
		if topo.IsWraparound(topology.Channel{From: src, Dir: d}) {
			hasWrap = true
		}
	}
	if !hasWrap {
		t.Fatalf("first hop candidates %v lack the wraparound", cands)
	}
	// The greedy selector prefers distance-reducing moves, so it takes
	// the wraparound (the default lowest-dimension policy would walk the
	// mesh).
	path, err := Walk(alg, src, dst, GreedySelector(topo))
	if err != nil {
		t.Fatal(err)
	}
	if len(path)-1 != 1 {
		t.Errorf("edge-to-edge path took %d hops, want 1 via wraparound", len(path)-1)
	}
}

// TestNegativeFirstTorusDelivery: strictly nonminimal classified-channel
// negative-first reaches every destination, and phase 1 (negative moves,
// including high-to-low wraparounds) always precedes phase 2.
func TestNegativeFirstTorusDelivery(t *testing.T) {
	topo := topology.NewTorus(5, 2)
	alg := NewNegativeFirstTorus(topo)
	rng := rand.New(rand.NewSource(9))
	sel := func(_, _ topology.NodeID, cands []topology.Direction) topology.Direction {
		return cands[rng.Intn(len(cands))]
	}
	for src := topology.NodeID(0); src < topology.NodeID(topo.Nodes()); src++ {
		for dst := topology.NodeID(0); dst < topology.NodeID(topo.Nodes()); dst++ {
			if src == dst {
				continue
			}
			path, err := Walk(alg, src, dst, sel)
			if err != nil {
				t.Fatalf("%d->%d: %v", src, dst, err)
			}
			// Classified direction of each hop: negative when the
			// coordinate decreased (including a wrap from k-1 to 0).
			positiveSeen := false
			for i := 1; i < len(path); i++ {
				var negative bool
				for dim := 0; dim < 2; dim++ {
					a, b := topo.CoordOf(path[i-1], dim), topo.CoordOf(path[i], dim)
					if a == b {
						continue
					}
					negative = b < a
				}
				if negative && positiveSeen {
					t.Fatalf("negative classified move after positive on %v", path)
				}
				if !negative {
					positiveSeen = true
				}
			}
		}
	}
}

// TestNegativeFirstTorusUsesWraparound: a packet at the high edge headed
// to a much lower coordinate may take the classified-negative
// wraparound.
func TestNegativeFirstTorusUsesWraparound(t *testing.T) {
	topo := topology.NewTorus(8, 2)
	alg := NewNegativeFirstTorus(topo)
	src := topo.ID(topology.Coord{7, 0})
	dst := topo.ID(topology.Coord{1, 0})
	cands := CandidateList(alg, src, dst, Injected)
	var hasMeshWest, hasWrap bool
	for _, d := range cands {
		if topo.IsWraparound(topology.Channel{From: src, Dir: d}) {
			hasWrap = true
		} else if d.Dim == 0 && !d.Pos {
			hasMeshWest = true
		}
	}
	if !hasMeshWest || !hasWrap {
		t.Errorf("east-edge node should offer both channels to the west (mesh and wraparound), got %v", cands)
	}
}
