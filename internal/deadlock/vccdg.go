package deadlock

import (
	"fmt"

	"turnmodel/internal/routing"
	"turnmodel/internal/topology"
)

// Virtual-channel dependency analysis: Step 1 of the turn model treats
// the v channels of a physical direction as v distinct virtual
// directions, and deadlock freedom is then a property of the VIRTUAL
// channel dependency graph — one vertex per (physical channel, virtual
// channel) pair. This is how the Dally-Seitz dateline scheme proves
// minimal torus routing deadlock free even though the physical channels
// of each ring form a cycle.

// VChannel names one virtual channel.
type VChannel struct {
	Ch topology.Channel
	VC int
}

func (v VChannel) String() string { return fmt.Sprintf("%v/vc%d", v.Ch, v.VC) }

// BuildVCCDG constructs the virtual channel dependency graph of a
// VC-aware routing relation by feasible-state propagation. For every
// destination it walks the set of virtual channels a packet bound for
// that destination can occupy, starting from injection at any source,
// and records, for each occupied virtual channel entering a node, the
// virtual channels the relation permits next. Candidates pass the same
// routing.Evaluator filter the simulator routes with: virtual channel
// in range, channel existing and not faulty.
func BuildVCCDG(alg routing.VCAlgorithm) *Graph {
	t := alg.Topology()
	vcs := alg.NumVCs()
	g := newGraph(t, vcs)
	ndirs := 2 * t.NumDims()
	vertex := func(from topology.NodeID, c routing.Candidate) int {
		return (int(from)*ndirs+int(c.Dir))*vcs + int(c.VC)
	}
	ev := routing.NewEvaluator(alg)
	reachable := make([]bool, len(g.adj))
	queue := make([]int, 0, len(g.adj))
	var cands []routing.Candidate
	for dst := topology.NodeID(0); dst < topology.NodeID(t.Nodes()); dst++ {
		clear(reachable)
		queue = queue[:0]
		// Seed: virtual channels a packet to dst can take from
		// injection at any source node.
		for src := topology.NodeID(0); src < topology.NodeID(t.Nodes()); src++ {
			if src == dst {
				continue
			}
			cands = ev.Candidates(src, dst, routing.VCInjected, cands[:0])
			for _, c := range cands {
				id := vertex(src, c)
				if !reachable[id] {
					reachable[id] = true
					queue = append(queue, id)
				}
			}
		}
		// Propagate: from each reachable virtual channel, the permitted
		// next ones are both dependency edges and newly reachable.
		for len(queue) > 0 {
			id := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			vch := g.vchannel(id)
			node := t.ChannelTo(vch.Ch)
			if node == dst {
				continue
			}
			cands = ev.Candidates(node, dst, routing.VCInPort{Dir: vch.Ch.Dir, VC: vch.VC}, cands[:0])
			for _, c := range cands {
				id2 := vertex(node, c)
				g.addEdge(id, id2)
				if !reachable[id2] {
					reachable[id2] = true
					queue = append(queue, id2)
				}
			}
		}
	}
	return g
}

// FindVCCycle returns a dependency cycle over virtual channels, or nil.
func (g *Graph) FindVCCycle() []VChannel {
	ids := findCycleIDs(g.adj, g.present)
	if ids == nil {
		return nil
	}
	out := make([]VChannel, len(ids))
	for i, id := range ids {
		out[i] = g.vchannel(id)
	}
	return out
}

// VCResult summarizes a virtual-channel deadlock check.
type VCResult struct {
	DeadlockFree    bool
	Cycle           []VChannel
	VirtualChannels int
	Edges           int
}

func (r VCResult) String() string {
	if r.DeadlockFree {
		return fmt.Sprintf("deadlock free (%d virtual channels, %d dependency edges, acyclic)", r.VirtualChannels, r.Edges)
	}
	return fmt.Sprintf("NOT deadlock free: virtual-channel dependency cycle of length %d: %v", len(r.Cycle), r.Cycle)
}

// CheckVC builds the virtual channel dependency graph of alg and
// reports whether it is acyclic.
func CheckVC(alg routing.VCAlgorithm) VCResult {
	g := BuildVCCDG(alg)
	cyc := g.FindVCCycle()
	return VCResult{
		DeadlockFree:    cyc == nil,
		Cycle:           cyc,
		VirtualChannels: alg.Topology().NumChannels() * alg.NumVCs(),
		Edges:           g.NumEdges(),
	}
}

// findCycleIDs is the iterative white/gray/black DFS over a graph's
// vertices; it returns vertex IDs along a cycle in waiting order, or nil.
func findCycleIDs(adj [][]int32, present []bool) []int {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	n := len(adj)
	color := make([]int8, n)
	parent := make([]int32, n)
	for i := range parent {
		parent[i] = -1
	}
	type frame struct {
		node int
		edge int
	}
	var stack []frame
	for start := 0; start < n; start++ {
		if color[start] != white || !present[start] {
			continue
		}
		color[start] = gray
		stack = append(stack[:0], frame{node: start})
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			if f.edge < len(adj[f.node]) {
				next := int(adj[f.node][f.edge])
				f.edge++
				switch color[next] {
				case white:
					color[next] = gray
					parent[next] = int32(f.node)
					stack = append(stack, frame{node: next})
				case gray:
					var cyc []int
					for v := f.node; ; v = int(parent[v]) {
						cyc = append(cyc, v)
						if v == next {
							break
						}
					}
					for i, j := 0, len(cyc)-1; i < j; i, j = i+1, j-1 {
						cyc[i], cyc[j] = cyc[j], cyc[i]
					}
					return cyc
				}
			} else {
				color[f.node] = black
				stack = stack[:len(stack)-1]
			}
		}
	}
	return nil
}
