package routing

import (
	"testing"

	"turnmodel/internal/core"
	"turnmodel/internal/topology"
)

// faultSets are the growing fault sets of the faults experiment on an
// 8x8 mesh: none, one broken east channel, and three broken channels.
var faultSets = [][]topology.Channel{
	{},
	{
		{From: 8*3 + 3, Dir: topology.Direction{Dim: 0, Pos: true}},
	},
	{
		{From: 8*3 + 3, Dir: topology.Direction{Dim: 0, Pos: true}},
		{From: 8*5 + 2, Dir: topology.Direction{Dim: 1, Pos: true}},
		{From: 8*1 + 6, Dir: topology.Direction{Dim: 1}},
	},
}

// canRoutePairs counts the ordered pairs cr cannot serve by asking it
// pair by pair.
func canRoutePairs(t *topology.Topology, cr CanRouter) int {
	bad := 0
	for s := topology.NodeID(0); int(s) < t.Nodes(); s++ {
		for d := topology.NodeID(0); int(d) < t.Nodes(); d++ {
			if s != d && !cr.CanRoute(s, d) {
				bad++
			}
		}
	}
	return bad
}

// TestUnroutablePairsMatchesCanRoute: the reverse search over the
// relation's state graph agrees with turn-graph routing's own
// reachability on the faults experiment's meshes, minimal and
// nonminimal, and UnroutablePairs reports that count. The minimal
// relation loses 0, 16 and 102 pairs; the nonminimal one none.
func TestUnroutablePairsMatchesCanRoute(t *testing.T) {
	wantMinimal := []int{0, 16, 102}
	for i, faults := range faultSets {
		topo := topology.NewMesh(8, 8)
		for _, f := range faults {
			if err := topo.DisableChannel(f); err != nil {
				t.Fatal(err)
			}
		}
		for _, minimal := range []bool{true, false} {
			alg := NewTurnGraphRouting(topo, core.WestFirstSet(), minimal)
			fast := canRoutePairs(topo, alg)
			search := UnroutablePairsVC(AsVC(alg))
			if fast != search {
				t.Errorf("%d faults, %s: CanRoute loses %d pairs, the reverse search %d", len(faults), alg.Name(), fast, search)
			}
			if got := UnroutablePairs(alg); got != fast {
				t.Errorf("%d faults, %s: UnroutablePairs = %d, want %d", len(faults), alg.Name(), got, fast)
			}
			want := 0
			if minimal {
				want = wantMinimal[i]
			}
			if fast != want {
				t.Errorf("%d faults, %s: %d unroutable pairs, want %d", len(faults), alg.Name(), fast, want)
			}
		}
	}
}

// TestUnroutablePairsDateline: dateline routing offers one virtual
// direction per hop, so a pair is unroutable exactly when its one path
// crosses a disabled channel. The reverse search over (router, arrival
// virtual direction) states must count those pairs, none on a healthy
// torus.
func TestUnroutablePairsDateline(t *testing.T) {
	topo := topology.NewTorus(5, 2)
	alg := NewDatelineDOR(topo)
	if got := UnroutablePairsVC(alg); got != 0 {
		t.Fatalf("healthy torus: %d unroutable pairs, want 0", got)
	}
	broken := topology.Channel{From: topo.ID(topology.Coord{4, 1}), Dir: topology.Direction{Dim: 0, Pos: true}}
	if err := topo.DisableChannel(broken); err != nil {
		t.Fatal(err)
	}
	want := 0
	for s := topology.NodeID(0); int(s) < topo.Nodes(); s++ {
		for d := topology.NodeID(0); int(d) < topo.Nodes(); d++ {
			if s == d {
				continue
			}
			path, err := WalkVC(alg, s, d)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i+1 < len(path); i++ {
				if path[i] == broken.From && path[i+1] == topo.ChannelTo(broken) {
					want++
					break
				}
			}
		}
	}
	if want == 0 {
		t.Fatal("no path crosses the broken channel; the test would be vacuous")
	}
	if got := UnroutablePairsVC(alg); got != want {
		t.Errorf("one broken channel: %d unroutable pairs, want %d", got, want)
	}
}
