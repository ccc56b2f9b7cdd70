// Package deadlock analyzes routing algorithms for deadlock freedom
// using channel dependency graphs, the Dally-Seitz framework the paper's
// proofs (Theorems 2-5) build on.
//
// A channel dependency graph (CDG) has one vertex per network channel
// and an edge c1 -> c2 whenever the routing relation can route some
// packet that holds c1 into c2, so that c1 waits on c2 in wormhole
// routing. The relation is deadlock free if and only if the CDG is
// acyclic, equivalently if the channels can be numbered so every
// transition is strictly monotone. The package provides both checks:
// cycle detection with witness extraction, and verification of explicit
// numbering schemes, including the ones used in the paper's proofs of
// Theorems 2 and 5.
package deadlock

import (
	"fmt"

	"turnmodel/internal/core"
	"turnmodel/internal/routing"
	"turnmodel/internal/topology"
)

// Graph is a channel dependency graph over a topology's dense channel ID
// space. Step 1 of the turn model treats the v virtual channels of a
// physical channel as v virtual directions, so the graph has one vertex
// per (channel, virtual channel) pair, vertex ChannelID(c)*v + vc; the
// graph of a single-channel relation has one vertex per channel.
type Graph struct {
	topo *topology.Topology
	vcs  int
	// adj[u] lists vertices w with an edge u -> w, deduplicated.
	adj [][]int32
	// present marks vertices whose channel exists in the topology.
	present []bool
	edges   int
}

// Topology returns the topology the graph was built over.
func (g *Graph) Topology() *topology.Topology { return g.topo }

// NumEdges returns the number of distinct dependency edges.
func (g *Graph) NumEdges() int { return g.edges }

// Edges calls fn for every dependency edge, naming the physical
// channels of its ends.
func (g *Graph) Edges(fn func(from, to topology.Channel)) {
	for u, outs := range g.adj {
		for _, w := range outs {
			fn(g.vchannel(u).Ch, g.vchannel(int(w)).Ch)
		}
	}
}

func newGraph(t *topology.Topology, vcs int) *Graph {
	n := t.NumChannelIDs() * vcs
	g := &Graph{topo: t, vcs: vcs, adj: make([][]int32, n), present: make([]bool, n)}
	t.Channels(func(c topology.Channel) {
		for vc := 0; vc < vcs; vc++ {
			g.present[t.ChannelID(c)*vcs+vc] = true
		}
	})
	return g
}

func (g *Graph) vchannel(id int) VChannel {
	return VChannel{Ch: g.topo.ChannelFromID(id / g.vcs), VC: id % g.vcs}
}

// addEdge records u -> w once. Edge lists stay short (at most one per
// virtual direction), so linear-scan deduplication is cheap and avoids
// per-pair bitmaps.
func (g *Graph) addEdge(u, w int) {
	for _, e := range g.adj[u] {
		if int(e) == w {
			return
		}
	}
	g.adj[u] = append(g.adj[u], int32(w))
	g.edges++
}

// BuildCDG constructs the channel dependency graph of a routing
// algorithm: the graph BuildVCCDG builds for its one-channel view.
func BuildCDG(alg routing.Algorithm) *Graph {
	return BuildVCCDG(routing.AsVC(alg))
}

// BuildTurnCDG constructs the channel dependency graph induced by a turn
// set alone, with no routing function: an edge c1 -> c2 exists whenever
// c2 leaves the node c1 enters and the turn from c1's direction to c2's
// is allowed. This captures the full (nonminimal, destination-free)
// relation of the turn model, the notion under which Figure 4's six-turn
// set "allows deadlock" even though its minimal relation is
// disconnected for some pairs.
func BuildTurnCDG(t *topology.Topology, set *core.Set) *Graph {
	if set.Dims() != t.NumDims() {
		panic(fmt.Sprintf("deadlock: turn set has %d dims, topology has %d", set.Dims(), t.NumDims()))
	}
	g := newGraph(t, 1)
	t.Channels(func(c1 topology.Channel) {
		if !t.Enabled(c1) {
			return
		}
		v := t.ChannelTo(c1)
		id1 := t.ChannelID(c1)
		for i := 0; i < 2*t.NumDims(); i++ {
			d := topology.DirectionFromIndex(i)
			if !set.Allowed(core.Turn{From: c1.Dir, To: d}) {
				continue
			}
			c2 := topology.Channel{From: v, Dir: d}
			if !t.Enabled(c2) {
				continue
			}
			g.adj[id1] = append(g.adj[id1], int32(t.ChannelID(c2)))
			g.edges++
		}
	})
	return g
}

// FindCycle returns a cycle in the graph as a sequence of channels
// (each waiting on the next, the last waiting on the first), or nil if
// the graph is acyclic. Acyclicity of the CDG is Dally and Seitz's
// necessary and sufficient condition for deadlock freedom. The cycle
// names physical channels; FindVCCycle keeps the virtual ones.
func (g *Graph) FindCycle() []topology.Channel {
	vcyc := g.FindVCCycle()
	if vcyc == nil {
		return nil
	}
	out := make([]topology.Channel, len(vcyc))
	for i, v := range vcyc {
		out[i] = v.Ch
	}
	return out
}

// Acyclic reports whether the graph has no cycles.
func (g *Graph) Acyclic() bool { return g.FindCycle() == nil }

// Result summarizes a deadlock-freedom check.
type Result struct {
	// DeadlockFree is true when the channel dependency graph is acyclic.
	DeadlockFree bool
	// Cycle is a witness dependency cycle when DeadlockFree is false.
	Cycle []topology.Channel
	// Channels and Edges describe the analyzed graph.
	Channels, Edges int
}

func (r Result) String() string {
	if r.DeadlockFree {
		return fmt.Sprintf("deadlock free (%d channels, %d dependency edges, acyclic)", r.Channels, r.Edges)
	}
	return fmt.Sprintf("NOT deadlock free: dependency cycle of length %d: %v", len(r.Cycle), r.Cycle)
}

// Check builds the CDG of alg and reports whether it is acyclic.
func Check(alg routing.Algorithm) Result {
	g := BuildCDG(alg)
	cyc := g.FindCycle()
	return Result{
		DeadlockFree: cyc == nil,
		Cycle:        cyc,
		Channels:     alg.Topology().NumChannels(),
		Edges:        g.NumEdges(),
	}
}

// CheckTurnSet builds the destination-free turn CDG of set on t and
// reports whether it is acyclic. The witness cycle, if any, is returned
// in a deterministic rotation — the channel with the lowest dense ID
// first — so logs and golden outputs keyed on the witness are stable
// regardless of the traversal order that discovered it.
func CheckTurnSet(t *topology.Topology, set *core.Set) Result {
	g := BuildTurnCDG(t, set)
	cyc := rotateMinFirst(t, g.FindCycle())
	return Result{
		DeadlockFree: cyc == nil,
		Cycle:        cyc,
		Channels:     t.NumChannels(),
		Edges:        g.NumEdges(),
	}
}

// rotateMinFirst rotates a dependency cycle in place so the channel
// with the smallest dense ID comes first. A cycle has no intrinsic
// starting point; picking the minimum makes the reported witness a
// canonical function of the cycle itself rather than of DFS entry
// order.
func rotateMinFirst(t *topology.Topology, cyc []topology.Channel) []topology.Channel {
	if len(cyc) == 0 {
		return cyc
	}
	min := 0
	for i := 1; i < len(cyc); i++ {
		if t.ChannelID(cyc[i]) < t.ChannelID(cyc[min]) {
			min = i
		}
	}
	if min == 0 {
		return cyc
	}
	rotated := make([]topology.Channel, 0, len(cyc))
	rotated = append(rotated, cyc[min:]...)
	rotated = append(rotated, cyc[:min]...)
	return rotated
}
