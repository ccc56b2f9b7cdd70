package routing

import (
	"fmt"

	"turnmodel/internal/topology"
)

// This file adds virtual channels, Step 1 of the turn model: "If each
// node has v channels in a physical direction, treat these channels as
// being in v distinct virtual directions and divide them into v distinct
// sets accordingly." The paper's own algorithms need no extra channels;
// virtual channels are what its Section 4.2 identifies as the price of
// MINIMAL deadlock-free routing on k-ary n-cubes (k > 4), implemented
// here as the classic Dally-Seitz dateline scheme for comparison with
// the paper's strictly nonminimal extensions.

// VirtualDirection is one virtual channel of a physical direction.
type VirtualDirection struct {
	Dir topology.Direction
	VC  int
}

func (v VirtualDirection) String() string {
	return fmt.Sprintf("%s/vc%d", v.Dir, v.VC)
}

// VCInPort describes how a packet arrived at a router in a
// virtual-channel network.
type VCInPort struct {
	Injected bool
	Dir      topology.Direction
	VC       int
}

// VCInjected is the VCInPort of a packet at its source.
var VCInjected = VCInPort{Injected: true}

// VCArrived returns the VCInPort of a packet that arrived on vd.
func VCArrived(vd VirtualDirection) VCInPort {
	return VCInPort{Dir: vd.Dir, VC: vd.VC}
}

// VCAlgorithm is a routing relation over virtual channels. Every
// Algorithm is a VCAlgorithm with one virtual channel per direction via
// AsVC.
type VCAlgorithm interface {
	// Name identifies the algorithm.
	Name() string
	// Topology returns the network routed on.
	Topology() *topology.Topology
	// NumVCs returns the number of virtual channels multiplexed on each
	// physical channel.
	NumVCs() int
	// CandidatesVC appends the permitted virtual output directions for a
	// packet at cur destined for dst that arrived via in. The same
	// contract as Algorithm.Candidates, lifted to virtual directions.
	CandidatesVC(cur, dst topology.NodeID, in VCInPort, buf []VirtualDirection) []VirtualDirection
}

// singleVC adapts a plain Algorithm to the VCAlgorithm interface with
// one virtual channel.
type singleVC struct {
	Algorithm
}

// AsVC returns alg viewed as a VCAlgorithm with a single virtual
// channel. If alg already implements VCAlgorithm it is returned as is.
func AsVC(alg Algorithm) VCAlgorithm {
	if v, ok := alg.(VCAlgorithm); ok {
		return v
	}
	return singleVC{alg}
}

func (s singleVC) NumVCs() int { return 1 }

// ArrivalInvariant forwards the wrapped algorithm's marker: the adapter
// adds no arrival dependence of its own.
func (s singleVC) ArrivalInvariant() bool {
	a, ok := s.Algorithm.(ArrivalInvariant)
	return ok && a.ArrivalInvariant()
}

// tableSlot is the wrapped relation's slot, so a table compiled from
// the adapter lives on the relation itself (see TableFor).
func (s singleVC) tableSlot() *tableSlot { return slotOf(s.Algorithm) }

func (s singleVC) CandidatesVC(cur, dst topology.NodeID, in VCInPort, buf []VirtualDirection) []VirtualDirection {
	var tmp [16]topology.Direction
	for _, d := range s.Algorithm.Candidates(cur, dst, plainInPort(in), tmp[:0]) {
		buf = append(buf, VirtualDirection{Dir: d})
	}
	return buf
}

// plainInPort is in seen by a single-channel relation.
func plainInPort(in VCInPort) InPort {
	if in.Injected {
		return Injected
	}
	return Arrived(in.Dir)
}

// Evaluator is one caller's evaluation of a VCAlgorithm: the relation's
// candidates for a header and the one filter every consumer applies to
// them (route-table compilation, the simulator's direct-evaluation
// fallback, dependency graphs, reachability). It owns its scratch, so
// evaluation allocates nothing once the scratch has grown to the
// relation's widest candidate list. A plain relation seen through AsVC
// evaluates into the evaluator's own direction scratch: a scratch array
// local to singleVC.CandidatesVC escapes to the heap on every call made
// through the interface. An Evaluator is not safe for concurrent use;
// give each goroutine its own, held by value in storage that goroutine
// owns, so that evaluators written by different goroutines do not share
// a cache line.
type Evaluator struct {
	alg   VCAlgorithm
	t     *topology.Topology
	vcs   int
	plain Algorithm // the wrapped relation when alg is AsVC's adapter
	dirs  []topology.Direction
	raw   []VirtualDirection
}

// NewEvaluator returns an evaluator of alg.
func NewEvaluator(alg VCAlgorithm) Evaluator {
	ev := Evaluator{alg: alg, t: alg.Topology(), vcs: alg.NumVCs()}
	if s, ok := alg.(singleVC); ok {
		ev.plain = s.Algorithm
	}
	return ev
}

// Raw returns the relation's unfiltered candidates for a header at cur
// destined for dst that arrived via in. The slice is the evaluator's
// scratch: the caller may reorder or shrink it, and it is overwritten
// by the next call.
func (ev *Evaluator) Raw(cur, dst topology.NodeID, in VCInPort) []VirtualDirection {
	if ev.plain == nil {
		ev.raw = ev.alg.CandidatesVC(cur, dst, in, ev.raw[:0])
		return ev.raw
	}
	ev.dirs = ev.plain.Candidates(cur, dst, plainInPort(in), ev.dirs[:0])
	ev.raw = ev.raw[:0]
	for _, d := range ev.dirs {
		ev.raw = append(ev.raw, VirtualDirection{Dir: d})
	}
	return ev.raw
}

// Filter appends to out the candidates of raw a header at cur destined
// for dst may take: the virtual channel in range and the channel
// existing and not faulty. Each is resolved to its output index (see
// OutIndex) and its profitability. A hop along dimension d changes only
// d's coordinate, so it shortens the route exactly when it shrinks d's
// shortest-way offset; that one-dimension test equals comparing the
// full distances. A hop the way the offset points always shrinks it; a
// hop against it shrinks it only on a ring whose two ways tie, so only
// those hops compute the offset after the hop.
func (ev *Evaluator) Filter(cur, dst topology.NodeID, raw []VirtualDirection, out []Candidate) []Candidate {
	t := ev.t
	ndim := t.NumDims()
	for _, vd := range raw {
		if vd.VC < 0 || vd.VC >= ev.vcs {
			continue
		}
		if !t.Enabled(topology.Channel{From: cur, Dir: vd.Dir}) {
			continue
		}
		off := t.MinDelta(cur, dst, vd.Dir.Dim)
		prof := off != 0 && (off > 0) == vd.Dir.Pos
		if !prof && off != 0 {
			next, _ := t.Neighbor(cur, vd.Dir)
			prof = abs(t.MinDelta(next, dst, vd.Dir.Dim)) < abs(off)
		}
		out = append(out, Candidate{
			Out:  OutIndex(cur, vd.Dir, vd.VC, ndim, ev.vcs),
			Dir:  uint8(vd.Dir.Index()),
			VC:   uint8(vd.VC),
			Prof: prof,
		})
	}
	return out
}

// Candidates appends the filtered candidates of a header at cur
// destined for dst that arrived via in: Filter applied to Raw.
func (ev *Evaluator) Candidates(cur, dst topology.NodeID, in VCInPort, out []Candidate) []Candidate {
	return ev.Filter(cur, dst, ev.Raw(cur, dst, in), out)
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// TorusDOR is minimal dimension-order routing on a k-ary n-cube USING
// wraparound channels but WITHOUT virtual channels. Per Section 4.2 it
// is not deadlock free for k > 4 (rings have channel cycles that
// involve no turns at all); it exists as the demonstration subject for
// that impossibility, the torus counterpart of FullyAdaptive.
type TorusDOR struct{ base }

// NewTorusDOR returns the (deadlock-prone) minimal dimension-order
// relation on torus t.
func NewTorusDOR(t *topology.Topology) *TorusDOR {
	if t.Kind() != topology.KindTorus {
		panic("routing: TorusDOR requires a torus")
	}
	return &TorusDOR{base{topo: t, name: "torus-dor"}}
}

// ArrivalInvariant marks the relation compilable: Candidates ignores
// the arrival port.
func (a *TorusDOR) ArrivalInvariant() bool { return true }

// Candidates implements Algorithm: the shortest-way direction in the
// lowest unresolved dimension, wrapping when shorter.
func (a *TorusDOR) Candidates(cur, dst topology.NodeID, _ InPort, buf []topology.Direction) []topology.Direction {
	a.checkDistinct(cur, dst)
	for dim := 0; dim < a.topo.NumDims(); dim++ {
		d := a.topo.MinDelta(cur, dst, dim)
		if d != 0 {
			return append(buf, topology.Direction{Dim: dim, Pos: d > 0})
		}
	}
	panic("routing: unreachable: cur == dst")
}

// DatelineDOR is minimal dimension-order routing on a k-ary n-cube with
// two virtual channels per physical channel, deadlock free by the
// Dally-Seitz dateline argument: within each dimension a packet travels
// on VC 1 while it still has the wraparound ("dateline") crossing ahead
// of it and on VC 0 afterwards, so virtual channel numbers strictly
// increase around each ring. This is the extra-channel approach the
// paper contrasts the turn model with.
type DatelineDOR struct{ base }

// NewDatelineDOR returns dateline dimension-order routing on torus t.
func NewDatelineDOR(t *topology.Topology) *DatelineDOR {
	if t.Kind() != topology.KindTorus {
		panic("routing: DatelineDOR requires a torus")
	}
	return &DatelineDOR{base{topo: t, name: "dateline-dor"}}
}

// NumVCs implements VCAlgorithm.
func (a *DatelineDOR) NumVCs() int { return 2 }

// ArrivalInvariant marks the relation compilable: the dateline class is
// a function of position alone, never of the arrival port.
func (a *DatelineDOR) ArrivalInvariant() bool { return true }

// Topology implements VCAlgorithm (promoted from base).

// vcFor returns the virtual channel class for a hop from cur moving s
// in dimension dim toward coordinate dstC: class 1 while the dateline
// (the wraparound edge) is still ahead, class 0 after crossing it. The
// decision is stateless: a packet that must wrap has not crossed yet
// exactly when its remaining movement passes the edge.
func (a *DatelineDOR) vcFor(cur topology.NodeID, dim int, pos bool, dstC int) int {
	x := a.topo.CoordOf(cur, dim)
	if pos {
		if dstC < x {
			return 1 // will cross k-1 -> 0 ahead
		}
		return 0
	}
	if dstC > x {
		return 1 // will cross 0 -> k-1 ahead
	}
	return 0
}

// CandidatesVC implements VCAlgorithm.
func (a *DatelineDOR) CandidatesVC(cur, dst topology.NodeID, _ VCInPort, buf []VirtualDirection) []VirtualDirection {
	a.checkDistinct(cur, dst)
	for dim := 0; dim < a.topo.NumDims(); dim++ {
		d := a.topo.MinDelta(cur, dst, dim)
		if d == 0 {
			continue
		}
		pos := d > 0
		vc := a.vcFor(cur, dim, pos, a.topo.CoordOf(dst, dim))
		return append(buf, VirtualDirection{Dir: topology.Direction{Dim: dim, Pos: pos}, VC: vc})
	}
	panic("routing: unreachable: cur == dst")
}

// WalkVC traces one packet under a VC-aware relation, returning the
// nodes visited. It follows the first candidate at each hop.
func WalkVC(alg VCAlgorithm, src, dst topology.NodeID) ([]topology.NodeID, error) {
	t := alg.Topology()
	path := []topology.NodeID{src}
	cur, in := src, VCInjected
	maxHops := t.NumChannelIDs()*alg.NumVCs() + 1
	var buf []VirtualDirection
	for cur != dst {
		if len(path) > maxHops {
			return path, fmt.Errorf("routing: %s VC walk exceeded %d hops", alg.Name(), maxHops)
		}
		buf = alg.CandidatesVC(cur, dst, in, buf[:0])
		if len(buf) == 0 {
			return path, fmt.Errorf("routing: %s has no VC candidates at node %d for destination %d", alg.Name(), cur, dst)
		}
		vd := buf[0]
		next, ok := t.Neighbor(cur, vd.Dir)
		if !ok {
			return path, fmt.Errorf("routing: %s chose nonexistent channel %v at node %d", alg.Name(), vd, cur)
		}
		cur, in = next, VCArrived(vd)
		path = append(path, cur)
	}
	return path, nil
}
