package routing

import (
	"fmt"
	"sync"

	"turnmodel/internal/core"
	"turnmodel/internal/topology"
)

// TurnGraphRouting is the routing relation derived from an arbitrary
// turn set, the general construction of the turn model (Section 2,
// Steps 1-6): a packet that arrived travelling direction a may leave in
// direction b exactly when the turn a->b is allowed by the set, the
// channel exists and is not faulty, and the destination remains
// reachable afterward without ever needing a prohibited turn.
//
// In minimal mode only shortest-path moves are offered; in nonminimal
// mode any move that keeps the destination reachable is offered, which
// is more adaptive and fault tolerant (Section 2). Reachability is
// computed over the turn graph — nodes paired with arrival directions —
// and honors disabled channels, so the relation routes around faults
// when the turn set permits.
type TurnGraphRouting struct {
	base
	set     *core.Set
	minimal bool

	mu sync.Mutex
	// reach holds, for every destination dst, the slice
	// reach[dst*states:(dst+1)*states] mapping arrival states to
	// reachability of dst; states are indexed node*(2n+1) + dirIndex,
	// with dirIndex 2n meaning "injected". done[dst] marks the
	// destinations computed so far. Both are allocated once per fault
	// epoch, so routing to a destination for the first time allocates
	// nothing; queue is the search's reusable work list.
	reach []bool
	done  []bool
	queue []int
	// reachEpoch is the topology fault epoch the cache was built at;
	// fault changes invalidate the cache.
	reachEpoch int
}

// NewTurnGraphRouting returns the routing relation induced by set on
// mesh (or torus) t. The set's dimensionality must match the topology's.
func NewTurnGraphRouting(t *topology.Topology, set *core.Set, minimal bool) *TurnGraphRouting {
	if set.Dims() != t.NumDims() {
		panic(fmt.Sprintf("routing: turn set has %d dims, topology has %d", set.Dims(), t.NumDims()))
	}
	mode := "nonminimal"
	if minimal {
		mode = "minimal"
	}
	return &TurnGraphRouting{
		base:    base{topo: t, name: fmt.Sprintf("turns(%s,%s)", set.Name(), mode)},
		set:     set,
		minimal: minimal,
	}
}

// Set returns the turn set defining the relation.
func (a *TurnGraphRouting) Set() *core.Set { return a.set }

// Minimal reports whether the relation is restricted to shortest paths.
func (a *TurnGraphRouting) Minimal() bool { return a.minimal }

func (a *TurnGraphRouting) stateIndex(node topology.NodeID, in InPort) int {
	w := 2*a.topo.NumDims() + 1
	if in.Injected {
		return int(node)*w + w - 1
	}
	return int(node)*w + in.Dir.Index()
}

// reachable reports whether a packet at cur that arrived via in can
// still reach dst using only allowed turns over enabled channels
// (and, in minimal mode, only shortest-path moves).
func (a *TurnGraphRouting) reachable(dst topology.NodeID) []bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	if e := a.topo.FaultEpoch(); e != a.reachEpoch || a.reach == nil {
		// A fresh array, not a cleared one: callers of an earlier epoch
		// may still hold slices of the old.
		n := a.topo.Nodes()
		a.reach = make([]bool, n*n*(2*a.topo.NumDims()+1))
		a.done = make([]bool, n)
		a.reachEpoch = e
	}
	states := len(a.reach) / len(a.done)
	r := a.reach[int(dst)*states : (int(dst)+1)*states]
	if !a.done[dst] {
		a.compute(dst, r)
		a.done[dst] = true
	}
	return r
}

// compute runs a reverse traversal from dst over the state graph
// (node, arrival direction). State (v, d) can reach dst if v == dst, or
// some allowed move from (v, d) leads to a state that can.
//
// In nonminimal mode the state graph may contain cycles, so a reverse
// BFS from the accepting states is used. In minimal mode moves strictly
// decrease the distance to dst, so the same traversal terminates
// trivially. The caller holds a.mu and passes r zeroed.
func (a *TurnGraphRouting) compute(dst topology.NodeID, r []bool) {
	t := a.topo
	w := 2*t.NumDims() + 1
	// Accepting states: any arrival state at dst.
	queue := a.queue[:0]
	for i := 0; i < w; i++ {
		r[int(dst)*w+i] = true
	}
	// Reverse edges: state (u, d_in) -> (v, d) where v = u + move d.
	// We search backward: seed with dst states and propagate to
	// predecessors. Predecessor of (v, d): any (u, d_in) with
	// neighbor(u, d) == v, turn d_in->d allowed (or u injected), channel
	// (u, d) enabled, and in minimal mode distance(u) == distance(v)+1.
	for i := 0; i < w; i++ {
		queue = append(queue, int(dst)*w+i)
	}
	// The queue is walked by index, not popped by reslicing, so its
	// storage is reused for every destination.
	for head := 0; head < len(queue); head++ {
		s := queue[head]
		v := topology.NodeID(s / w)
		di := s % w
		if di == w-1 {
			continue // injected states have no incoming moves
		}
		d := topology.DirectionFromIndex(di)
		// The packet arrived at v travelling d, so it came from the
		// neighbor of v in the opposite direction... except across
		// wraparounds, where Neighbor handles the modular arithmetic.
		u, ok := t.Neighbor(v, d.Opposite())
		if !ok {
			continue
		}
		ch := topology.Channel{From: u, Dir: d}
		// Careful with tori: the channel from u travelling d must lead
		// to v. On a two-node ring both directions lead to the same
		// neighbor and this holds automatically.
		if !t.Enabled(ch) || t.ChannelTo(ch) != v {
			continue
		}
		if a.minimal && t.Distance(u, dst) != t.Distance(v, dst)+1 {
			continue
		}
		for pi := 0; pi < w; pi++ {
			ps := int(u)*w + pi
			if r[ps] {
				continue
			}
			if pi < w-1 {
				in := topology.DirectionFromIndex(pi)
				if !a.set.Allowed(core.Turn{From: in, To: d}) {
					continue
				}
			}
			r[ps] = true
			queue = append(queue, ps)
		}
	}
	a.queue = queue
}

// CanRoute reports whether the relation can deliver a packet injected at
// src to dst at all. A turn set that breaks connectivity (possible for
// prohibitions beyond one per cycle, or for the deadlocking reverse
// pairs in minimal mode) yields false for some pairs.
func (a *TurnGraphRouting) CanRoute(src, dst topology.NodeID) bool {
	if src == dst {
		return true
	}
	return a.reachable(dst)[a.stateIndex(src, Injected)]
}

// Candidates implements Algorithm.
func (a *TurnGraphRouting) Candidates(cur, dst topology.NodeID, in InPort, buf []topology.Direction) []topology.Direction {
	a.checkDistinct(cur, dst)
	t := a.topo
	reach := a.reachable(dst)
	for i := 0; i < 2*t.NumDims(); i++ {
		d := topology.DirectionFromIndex(i)
		if !in.Injected && !a.set.Allowed(core.Turn{From: in.Dir, To: d}) {
			continue
		}
		ch := topology.Channel{From: cur, Dir: d}
		if !t.Enabled(ch) {
			continue
		}
		next := t.ChannelTo(ch)
		if a.minimal && t.Distance(next, dst) != t.Distance(cur, dst)-1 {
			continue
		}
		if next != dst && !reach[a.stateIndex(next, Arrived(d))] {
			continue
		}
		buf = append(buf, d)
	}
	return buf
}
