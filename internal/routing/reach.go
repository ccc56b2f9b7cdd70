package routing

import (
	"turnmodel/internal/topology"
)

// CanRouter is implemented by relations that can answer source-to-
// destination reachability directly (e.g. TurnGraphRouting's cached
// turn-graph reachability). UnroutablePairs uses it as a fast path.
type CanRouter interface {
	// CanRoute reports whether a packet injected at src can reach dst
	// under the topology's current fault set.
	CanRoute(src, dst topology.NodeID) bool
}

// UnroutablePairs counts the ordered (src, dst) pairs, src != dst, that
// alg cannot serve under its topology's current fault set — the pairs a
// fault campaign must expect to drop (or to deadlock on, for relations
// that lose connectivity non-gracefully). Relations implementing
// CanRouter answer directly; for the rest it is UnroutablePairsVC of
// the relation's one-channel view.
func UnroutablePairs(alg Algorithm) int {
	cr, ok := alg.(CanRouter)
	if !ok {
		return UnroutablePairsVC(AsVC(alg))
	}
	n := alg.Topology().Nodes()
	bad := 0
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			if s != d && !cr.CanRoute(topology.NodeID(s), topology.NodeID(d)) {
				bad++
			}
		}
	}
	return bad
}

// UnroutablePairsVC is UnroutablePairs for virtual-channel relations,
// computed by a reverse search of the relation's state graph. For each
// destination, the states are (router, arrival virtual direction)
// pairs plus each router's injected state, and the edges are the
// relation's candidate moves under the routing.Evaluator filter, which
// honors disabled channels exactly as the simulator's allocation does.
// One reverse search from the destination's states marks every state
// that can reach it; a source is routable iff its injected state is
// marked. The search runs over virtual directions because projecting
// the relation onto physical directions would overcount: a VC
// transition permitted from one arrival channel may be forbidden from
// another (the dateline scheme's whole point).
func UnroutablePairsVC(alg VCAlgorithm) int {
	t := alg.Topology()
	n := t.Nodes()
	ndirs := 2 * t.NumDims()
	vcs := alg.NumVCs()
	ports := ndirs*vcs + 1 // arrival virtual directions plus injected
	nstates := n * ports
	rev := make([][]int32, nstates)
	reach := make([]bool, nstates)
	queue := make([]int32, 0, nstates)
	ev := NewEvaluator(alg)
	var cands []Candidate
	bad := 0
	for dsti := 0; dsti < n; dsti++ {
		dst := topology.NodeID(dsti)
		for i := range rev {
			rev[i] = rev[i][:0]
		}
		clear(reach)
		queue = queue[:0]
		for v := 0; v < n; v++ {
			if v == dsti {
				// The relation must not be asked for candidates at the
				// destination; its states are the accepting set.
				for ip := 0; ip < ports; ip++ {
					s := int32(v*ports + ip)
					reach[s] = true
					queue = append(queue, s)
				}
				continue
			}
			cur := topology.NodeID(v)
			for ip := 0; ip < ports; ip++ {
				in := VCInjected
				if ip < ndirs*vcs {
					in = VCArrived(VirtualDirection{Dir: topology.DirectionFromIndex(ip / vcs), VC: ip % vcs})
				}
				cands = ev.Candidates(cur, dst, in, cands[:0])
				for _, c := range cands {
					u, _ := t.Neighbor(cur, c.Direction())
					to := int32(int(u)*ports + int(c.Dir)*vcs + int(c.VC))
					rev[to] = append(rev[to], int32(v*ports+ip))
				}
			}
		}
		for len(queue) > 0 {
			s := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			for _, from := range rev[s] {
				if !reach[from] {
					reach[from] = true
					queue = append(queue, from)
				}
			}
		}
		for v := 0; v < n; v++ {
			if v != dsti && !reach[v*ports+ndirs*vcs] {
				bad++
			}
		}
	}
	return bad
}
