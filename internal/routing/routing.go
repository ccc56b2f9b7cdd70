// Package routing implements the routing algorithms studied in the
// paper: the nonadaptive dimension-order baselines (xy, e-cube), the
// turn-model partially adaptive algorithms for 2D meshes (west-first,
// north-last, negative-first), n-dimensional meshes (ABONF, ABOPL,
// negative-first), hypercubes (p-cube), and k-ary n-cubes (wraparound
// extensions), plus a fully adaptive reference relation and routing
// relations derived from arbitrary turn sets.
//
// An Algorithm is a routing relation: given a packet's current node, its
// destination, and the direction it arrived from, it returns the set of
// output directions the algorithm permits. Adaptiveness is the size of
// that set; the simulator's output selection policy picks among them.
package routing

import (
	"fmt"

	"turnmodel/internal/topology"
)

// InPort describes how a packet arrived at the current router.
type InPort struct {
	// Injected is true when the packet is at its source and has not yet
	// taken a network channel.
	Injected bool
	// Dir is the direction the packet was travelling when it arrived;
	// meaningful only when Injected is false.
	Dir topology.Direction
}

// Injected is the InPort of a packet at its source.
var Injected = InPort{Injected: true}

// Arrived returns the InPort of a packet that arrived travelling d.
func Arrived(d topology.Direction) InPort { return InPort{Dir: d} }

// Algorithm is a wormhole routing relation bound to a topology.
//
// Implementations must be safe for concurrent use by multiple
// goroutines; they are pure functions of their inputs.
type Algorithm interface {
	// Name identifies the algorithm, e.g. "west-first".
	Name() string
	// Topology returns the network the algorithm routes on.
	Topology() *topology.Topology
	// Candidates appends to buf the output directions permitted for a
	// packet at cur destined for dst that arrived via in, and returns the
	// extended slice. It must return at least one direction whenever
	// cur != dst and the packet arrived by a move the relation itself
	// permits (the relation is connected), and must not be called with
	// cur == dst. Directions are returned in ascending dimension order,
	// negative before positive, so that deterministic output selection
	// policies see a stable order.
	Candidates(cur, dst topology.NodeID, in InPort, buf []topology.Direction) []topology.Direction
}

// CandidateList collects candidates with a fresh buffer; a convenience
// for tests and analysis code (the simulator reuses buffers instead).
func CandidateList(a Algorithm, cur, dst topology.NodeID, in InPort) []topology.Direction {
	return a.Candidates(cur, dst, in, nil)
}

// base carries the topology shared by all algorithm implementations,
// and the route table compiled from the relation (see TableFor).
type base struct {
	topo  *topology.Topology
	name  string
	table tableSlot
}

func (b *base) Name() string                 { return b.name }
func (b *base) Topology() *topology.Topology { return b.topo }
func (b *base) checkDistinct(cur, dst topology.NodeID) {
	if cur == dst {
		panic(fmt.Sprintf("routing: %s asked to route a packet already at its destination (node %d)", b.name, cur))
	}
}

// profitable appends the minimal ("profitable") directions from cur
// toward dst: for every dimension with a nonzero shortest-path offset,
// the direction that reduces it. Wraparound channels are used when they
// are on a shortest path.
func profitable(t *topology.Topology, cur, dst topology.NodeID, buf []topology.Direction) []topology.Direction {
	for dim := 0; dim < t.NumDims(); dim++ {
		d := t.MinDelta(cur, dst, dim)
		if d < 0 {
			buf = append(buf, topology.Direction{Dim: dim})
		} else if d > 0 {
			buf = append(buf, topology.Direction{Dim: dim, Pos: true})
		}
	}
	return buf
}

// DimensionOrder is the nonadaptive dimension-order routing algorithm:
// xy routing on a 2D mesh, e-cube on a hypercube. It routes each packet
// completely in dimension 0, then dimension 1, and so on. It is
// deadlock free on meshes (and hypercubes) but offers no adaptiveness.
type DimensionOrder struct{ base }

// NewDimensionOrder returns dimension-order routing on t. On a torus it
// routes over the mesh sub-network only (wraparound channels are never
// used): with k > 2, routing that uses wraparound channels is not
// deadlock free without extra channels (Section 4.2).
func NewDimensionOrder(t *topology.Topology) *DimensionOrder {
	name := "dimension-order"
	switch {
	case t.IsHypercube():
		name = "e-cube"
	case t.NumDims() == 2:
		name = "xy"
	}
	return &DimensionOrder{base{topo: t, name: name}}
}

// ArrivalInvariant marks the relation compilable: Candidates ignores
// the arrival port. (Defined per concrete type, not on base: embedding
// base does not imply invariance — see TurnGraphRouting.)
func (a *DimensionOrder) ArrivalInvariant() bool { return true }

// Candidates implements Algorithm: the single profitable direction in
// the lowest unresolved dimension.
func (a *DimensionOrder) Candidates(cur, dst topology.NodeID, _ InPort, buf []topology.Direction) []topology.Direction {
	a.checkDistinct(cur, dst)
	for dim := 0; dim < a.topo.NumDims(); dim++ {
		d := a.topo.Delta(cur, dst, dim)
		if d < 0 {
			return append(buf, topology.Direction{Dim: dim})
		}
		if d > 0 {
			return append(buf, topology.Direction{Dim: dim, Pos: true})
		}
	}
	panic("routing: unreachable: cur == dst")
}

// NegativeFirst is the minimal negative-first algorithm for
// n-dimensional meshes (and, on hypercubes, the p-cube algorithm of
// Section 5): route first adaptively in all needed negative directions,
// then adaptively in all needed positive directions. Deadlock free by
// Theorem 5.
type NegativeFirst struct{ base }

// NewNegativeFirst returns minimal negative-first routing on mesh t. On
// a torus it routes over the mesh sub-network only; NewNegativeFirstTorus
// adds classified wraparound channels (Section 4.2).
func NewNegativeFirst(t *topology.Topology) *NegativeFirst {
	name := "negative-first"
	if t.IsHypercube() {
		name = "p-cube"
	}
	return &NegativeFirst{base{topo: t, name: name}}
}

// ArrivalInvariant marks the relation compilable: Candidates ignores
// the arrival port.
func (a *NegativeFirst) ArrivalInvariant() bool { return true }

// Candidates implements Algorithm.
func (a *NegativeFirst) Candidates(cur, dst topology.NodeID, _ InPort, buf []topology.Direction) []topology.Direction {
	a.checkDistinct(cur, dst)
	start := len(buf)
	for dim := 0; dim < a.topo.NumDims(); dim++ {
		if a.topo.Delta(cur, dst, dim) < 0 {
			buf = append(buf, topology.Direction{Dim: dim})
		}
	}
	if len(buf) > start {
		return buf // phase 1: negative moves remain
	}
	for dim := 0; dim < a.topo.NumDims(); dim++ {
		if a.topo.Delta(cur, dst, dim) > 0 {
			buf = append(buf, topology.Direction{Dim: dim, Pos: true})
		}
	}
	return buf
}

// ABONF is the minimal all-but-one-negative-first algorithm for
// n-dimensional meshes: route first adaptively in the negative
// directions of all dimensions except Excluded, then adaptively in the
// remaining directions. With a 2D mesh and Excluded = 1 it is the
// west-first algorithm.
type ABONF struct {
	base
	// Excluded is the dimension whose negative direction is deferred to
	// the second phase.
	Excluded int
}

// NewABONF returns minimal ABONF routing on mesh t, excluding dimension
// excluded from the first phase. On a torus the wraparound channels are
// ignored; see NewWrapFirstHop to incorporate them.
func NewABONF(t *topology.Topology, excluded int) *ABONF {
	if excluded < 0 || excluded >= t.NumDims() {
		panic(fmt.Sprintf("routing: excluded dimension %d out of range", excluded))
	}
	name := fmt.Sprintf("abonf(excl %d)", excluded)
	if t.NumDims() == 2 && excluded == 1 {
		name = "west-first"
	}
	return &ABONF{base: base{topo: t, name: name}, Excluded: excluded}
}

// NewWestFirst returns the west-first algorithm for a 2D mesh
// (Section 3.1): route a packet first west, if necessary, and then
// adaptively south, east, and north.
func NewWestFirst(t *topology.Topology) *ABONF {
	if t.NumDims() != 2 {
		panic("routing: west-first is defined for 2D meshes; use NewABONF for higher dimensions")
	}
	return NewABONF(t, 1)
}

// ArrivalInvariant marks the relation compilable: Candidates ignores
// the arrival port.
func (a *ABONF) ArrivalInvariant() bool { return true }

// Candidates implements Algorithm.
func (a *ABONF) Candidates(cur, dst topology.NodeID, _ InPort, buf []topology.Direction) []topology.Direction {
	a.checkDistinct(cur, dst)
	start := len(buf)
	for dim := 0; dim < a.topo.NumDims(); dim++ {
		if dim != a.Excluded && a.topo.Delta(cur, dst, dim) < 0 {
			buf = append(buf, topology.Direction{Dim: dim})
		}
	}
	if len(buf) > start {
		return buf // phase 1: non-excluded negative moves remain
	}
	for dim := 0; dim < a.topo.NumDims(); dim++ {
		d := a.topo.Delta(cur, dst, dim)
		if d < 0 {
			buf = append(buf, topology.Direction{Dim: dim})
		} else if d > 0 {
			buf = append(buf, topology.Direction{Dim: dim, Pos: true})
		}
	}
	return buf
}

// ABOPL is the minimal all-but-one-positive-last algorithm for
// n-dimensional meshes: route first adaptively in the negative
// directions and the positive direction of dimension Special, then
// adaptively in the remaining positive directions. With a 2D mesh and
// Special = 0 it is the north-last algorithm.
type ABOPL struct {
	base
	// Special is the dimension whose positive direction joins the first
	// phase.
	Special int
}

// NewABOPL returns minimal ABOPL routing on mesh t with the given
// special dimension. On a torus the wraparound channels are ignored; see
// NewWrapFirstHop to incorporate them.
func NewABOPL(t *topology.Topology, special int) *ABOPL {
	if special < 0 || special >= t.NumDims() {
		panic(fmt.Sprintf("routing: special dimension %d out of range", special))
	}
	name := fmt.Sprintf("abopl(dim %d)", special)
	if t.NumDims() == 2 && special == 0 {
		name = "north-last"
	}
	return &ABOPL{base: base{topo: t, name: name}, Special: special}
}

// NewNorthLast returns the north-last algorithm for a 2D mesh
// (Section 3.2): route a packet first adaptively west, south, and east,
// and then north.
func NewNorthLast(t *topology.Topology) *ABOPL {
	if t.NumDims() != 2 {
		panic("routing: north-last is defined for 2D meshes; use NewABOPL for higher dimensions")
	}
	return NewABOPL(t, 0)
}

// ArrivalInvariant marks the relation compilable: Candidates ignores
// the arrival port.
func (a *ABOPL) ArrivalInvariant() bool { return true }

// Candidates implements Algorithm.
func (a *ABOPL) Candidates(cur, dst topology.NodeID, _ InPort, buf []topology.Direction) []topology.Direction {
	a.checkDistinct(cur, dst)
	start := len(buf)
	for dim := 0; dim < a.topo.NumDims(); dim++ {
		d := a.topo.Delta(cur, dst, dim)
		if d < 0 {
			buf = append(buf, topology.Direction{Dim: dim})
		} else if d > 0 && dim == a.Special {
			buf = append(buf, topology.Direction{Dim: dim, Pos: true})
		}
	}
	if len(buf) > start {
		return buf // phase 1: negative or special-positive moves remain
	}
	for dim := 0; dim < a.topo.NumDims(); dim++ {
		if dim != a.Special && a.topo.Delta(cur, dst, dim) > 0 {
			buf = append(buf, topology.Direction{Dim: dim, Pos: true})
		}
	}
	return buf
}

// FullyAdaptive is the minimal fully adaptive relation: every profitable
// direction is permitted. Without extra physical or virtual channels it
// is NOT deadlock free (its channel dependency graph is cyclic); it
// exists as the S_f reference for adaptiveness measurements and as a
// deadlock demonstration.
type FullyAdaptive struct{ base }

// NewFullyAdaptive returns the fully adaptive minimal relation on t.
func NewFullyAdaptive(t *topology.Topology) *FullyAdaptive {
	return &FullyAdaptive{base{topo: t, name: "fully-adaptive"}}
}

// ArrivalInvariant marks the relation compilable: Candidates ignores
// the arrival port.
func (a *FullyAdaptive) ArrivalInvariant() bool { return true }

// Candidates implements Algorithm.
func (a *FullyAdaptive) Candidates(cur, dst topology.NodeID, _ InPort, buf []topology.Direction) []topology.Direction {
	a.checkDistinct(cur, dst)
	return profitable(a.topo, cur, dst, buf)
}
