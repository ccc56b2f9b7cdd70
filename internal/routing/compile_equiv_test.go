package routing

import (
	"fmt"
	"runtime"
	"slices"
	"testing"

	"turnmodel/internal/core"
	"turnmodel/internal/topology"
)

// referenceCompile is the straightforward table build the optimised
// Compile must reproduce entry for entry: serial and row-major, one
// CandidatesVC call per evaluation, profitability from two full
// Distance sums, and every list appended to the arena without
// interning (the arrived span aliases the injected one only when the
// two lists are equal).
func referenceCompile(alg VCAlgorithm) (*Table, error) {
	t := alg.Topology()
	n, vcs, ndim := t.Nodes(), alg.NumVCs(), t.NumDims()
	tab := &Table{epoch: t.FaultEpoch(), n: n, spans: make([]span, n*n*2)}
	eval := func(cur, dst topology.NodeID, in VCInPort) []Candidate {
		var out []Candidate
		base := t.Distance(cur, dst)
		for _, vd := range alg.CandidatesVC(cur, dst, in, nil) {
			if vd.VC < 0 || vd.VC >= vcs || !t.Enabled(topology.Channel{From: cur, Dir: vd.Dir}) {
				continue
			}
			next, ok := t.Neighbor(cur, vd.Dir)
			out = append(out, Candidate{
				Out:  OutIndex(cur, vd.Dir, vd.VC, ndim, vcs),
				Dir:  uint8(vd.Dir.Index()),
				VC:   uint8(vd.VC),
				Prof: ok && t.Distance(next, dst) < base,
			})
		}
		return out
	}
	appendList := func(cs []Candidate) span {
		start := int32(len(tab.cands))
		tab.cands = append(tab.cands, cs...)
		return span{start: start, end: int32(len(tab.cands))}
	}
	invariant := isArrivalInvariant(alg)
	for cur := topology.NodeID(0); int(cur) < n; cur++ {
		for dst := topology.NodeID(0); int(dst) < n; dst++ {
			if cur == dst {
				continue
			}
			inj := eval(cur, dst, VCInjected)
			var arr []Candidate
			if invariant {
				arr = eval(cur, dst, VCInPort{})
			} else {
				ports := arrivalPorts(t, cur, vcs)
				if len(ports) == 0 {
					arr = inj
				}
				for i, in := range ports {
					got := eval(cur, dst, in)
					if i == 0 {
						arr = got
					} else if !candsEqual(arr, got) {
						return nil, fmt.Errorf("routing: %s depends on the arrival port at node %d (dst %d); not compilable",
							alg.Name(), cur, dst)
					}
				}
			}
			si := (int(cur)*n + int(dst)) * 2
			tab.spans[si] = appendList(inj)
			if candsEqual(inj, arr) {
				tab.spans[si+1] = tab.spans[si]
			} else {
				tab.spans[si+1] = appendList(arr)
			}
		}
	}
	return tab, nil
}

// sameLookups compares two tables over the same relation at every
// (cur, dst, injected).
func sameLookups(t *testing.T, name string, got, want *Table) {
	t.Helper()
	n := want.n
	for cur := topology.NodeID(0); int(cur) < n; cur++ {
		for dst := topology.NodeID(0); int(dst) < n; dst++ {
			for _, injected := range []bool{true, false} {
				g, w := got.Lookup(cur, dst, injected), want.Lookup(cur, dst, injected)
				if !candsEqual(g, w) {
					t.Fatalf("%s: Lookup(%d, %d, injected=%v) = %v, reference %v", name, cur, dst, injected, g, w)
				}
			}
		}
	}
}

// figureRelations returns the relations of Figures 13-16: the four
// 2D-mesh algorithms on a 16x16 mesh and the four hypercube algorithms
// on an 8-cube.
func figureRelations() []VCAlgorithm {
	mesh := topology.NewMesh(16, 16)
	cube := topology.NewHypercube(8)
	return []VCAlgorithm{
		AsVC(NewDimensionOrder(mesh)),
		AsVC(NewWestFirst(mesh)),
		AsVC(NewNorthLast(mesh)),
		AsVC(NewNegativeFirst(mesh)),
		AsVC(NewDimensionOrder(cube)),
		AsVC(NewABONF(cube, cube.NumDims()-1)),
		AsVC(NewABOPL(cube, 0)),
		AsVC(NewNegativeFirst(cube)),
	}
}

// TestCompileMatchesReference: the compiled table answers every lookup
// exactly as the reference build does, for the figure relations, a
// relation whose injected and arrived lists differ (WrapFirstHop), a
// two-VC relation (DatelineDOR), and a mesh whose channels are
// disabled and repaired between compiles.
func TestCompileMatchesReference(t *testing.T) {
	torus := topology.NewTorus(6, 2)
	algs := append(figureRelations(),
		AsVC(NewWrapFirstHop(NewNegativeFirst(torus))),
		NewDatelineDOR(topology.NewTorus(8, 2)),
		plainVC{AsVC(NewWestFirst(topology.NewMesh(6, 5)))},
	)
	for _, alg := range algs {
		got, err := Compile(alg)
		if err != nil {
			t.Fatalf("%s: %v", alg.Name(), err)
		}
		want, err := referenceCompile(alg)
		if err != nil {
			t.Fatalf("%s: reference: %v", alg.Name(), err)
		}
		sameLookups(t, alg.Name(), got, want)
		if got.MemoryBytes() > want.MemoryBytes() {
			t.Errorf("%s: interned table %d B exceeds the reference's %d B", alg.Name(), got.MemoryBytes(), want.MemoryBytes())
		}
	}

	mesh := topology.NewMesh(7, 6)
	for _, alg := range []VCAlgorithm{AsVC(NewWestFirst(mesh)), AsVC(NewFullyAdaptive(mesh)), detourVC{mesh}} {
		broken := []topology.Channel{
			{From: mesh.ID(topology.Coord{3, 2}), Dir: topology.Direction{Dim: 0, Pos: true}},
			{From: mesh.ID(topology.Coord{3, 2}), Dir: topology.Direction{Dim: 1}},
			{From: mesh.ID(topology.Coord{0, 5}), Dir: topology.Direction{Dim: 0, Pos: true}},
		}
		for step := 0; step <= len(broken); step++ {
			if step > 0 {
				if err := mesh.DisableChannel(broken[step-1]); err != nil {
					t.Fatal(err)
				}
			}
			got, err := Compile(alg)
			if err != nil {
				t.Fatalf("%s with %d faults: %v", alg.Name(), step, err)
			}
			want, _ := referenceCompile(alg)
			sameLookups(t, fmt.Sprintf("%s with %d faults", alg.Name(), step), got, want)
		}
		for _, ch := range broken {
			mesh.EnableChannel(ch)
		}
	}
}

// dependsAt is arrival dependent at the listed nodes only, and there
// only for destinations from the listed one up: it hides its first
// candidate from packets that arrived travelling in the positive
// direction of dimension 0.
type dependsAt struct {
	inner VCAlgorithm
	from  map[topology.NodeID]topology.NodeID
}

func (d dependsAt) Name() string                 { return "depends-at-" + d.inner.Name() }
func (d dependsAt) Topology() *topology.Topology { return d.inner.Topology() }
func (d dependsAt) NumVCs() int                  { return d.inner.NumVCs() }
func (d dependsAt) CandidatesVC(cur, dst topology.NodeID, in VCInPort, buf []VirtualDirection) []VirtualDirection {
	start := len(buf)
	buf = d.inner.CandidatesVC(cur, dst, in, buf)
	if from, ok := d.from[cur]; ok && dst >= from && !in.Injected && in.Dir == (topology.Direction{Dim: 0, Pos: true}) && len(buf) > start {
		buf = append(buf[:start], buf[start+1:]...)
	}
	return buf
}

// withProcs runs fn under the given GOMAXPROCS, restoring the old
// setting afterwards.
func withProcs(procs int, fn func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	fn()
}

// TestCompileIdenticalAcrossGOMAXPROCS: the row-parallel build gives
// the same spans, arena and MemoryBytes, and the same error for an
// arrival-dependent relation, at one and at four workers.
func TestCompileIdenticalAcrossGOMAXPROCS(t *testing.T) {
	mesh := topology.NewMesh(16, 16)
	faulty := topology.NewMesh(9, 7)
	faulty.DisableChannel(topology.Channel{From: faulty.ID(topology.Coord{4, 3}), Dir: topology.Direction{Dim: 1, Pos: true}})
	algs := append(figureRelations(),
		AsVC(NewWrapFirstHop(NewNegativeFirst(topology.NewTorus(6, 2)))),
		NewDatelineDOR(topology.NewTorus(8, 2)),
		AsVC(NewFullyAdaptive(faulty)),
		detourVC{faulty},
		AsVC(NewTurnGraphRouting(mesh, core.WestFirstSet(), false)),
		// Dependent at rows in the second and fourth quarters, and at a
		// row of the first quarter for late destinations only.
		dependsAt{AsVC(NewFullyAdaptive(mesh)), map[topology.NodeID]topology.NodeID{3: 250, 100: 0, 230: 0}},
	)
	for _, alg := range algs {
		var one, four *Table
		var err1, err4 error
		withProcs(1, func() { one, err1 = Compile(alg) })
		withProcs(4, func() { four, err4 = Compile(alg) })
		if err1 != nil || err4 != nil {
			if err1 == nil || err4 == nil || err1.Error() != err4.Error() {
				t.Errorf("%s: errors differ across GOMAXPROCS: %v vs %v", alg.Name(), err1, err4)
			}
			continue
		}
		if !slices.Equal(one.spans, four.spans) || !slices.Equal(one.cands, four.cands) || one.MemoryBytes() != four.MemoryBytes() {
			t.Errorf("%s: tables differ between GOMAXPROCS 1 (%d B) and 4 (%d B)", alg.Name(), one.MemoryBytes(), four.MemoryBytes())
		}
	}
}

// TestCompileErrorMatchesSerial: an arrival-dependent relation fails
// with the reference build's error, naming the first (node, dst) pair
// in row-major order, whatever the worker count.
func TestCompileErrorMatchesSerial(t *testing.T) {
	mesh := topology.NewMesh(16, 16)
	for _, tc := range []struct {
		alg  VCAlgorithm
		want string
	}{
		{AsVC(NewTurnGraphRouting(topology.NewMesh(4, 4), core.WestFirstSet(), false)),
			"routing: turns(west-first,nonminimal) depends on the arrival port at node 0 (dst 1); not compilable"},
		{dependsAt{AsVC(NewFullyAdaptive(mesh)), map[topology.NodeID]topology.NodeID{100: 0, 230: 0}},
			"routing: depends-at-fully-adaptive depends on the arrival port at node 100 (dst 0); not compilable"},
		// The first failure sits late in an early row, after a later
		// row's worker has already failed at its first destination.
		{dependsAt{AsVC(NewFullyAdaptive(mesh)), map[topology.NodeID]topology.NodeID{3: 250, 100: 0, 230: 0}},
			"routing: depends-at-fully-adaptive depends on the arrival port at node 3 (dst 250); not compilable"},
	} {
		_, ref := referenceCompile(tc.alg)
		if ref == nil || ref.Error() != tc.want {
			t.Fatalf("reference error %v, want %q", ref, tc.want)
		}
		for _, procs := range []int{1, 2, 4, 7} {
			withProcs(procs, func() {
				if _, err := Compile(tc.alg); err == nil || err.Error() != tc.want {
					t.Errorf("GOMAXPROCS %d: error %v, want %q", procs, err, tc.want)
				}
			})
		}
	}
}

// panicsAt panics when evaluated at one node.
type panicsAt struct {
	VCAlgorithm
	at topology.NodeID
}

func (p panicsAt) CandidatesVC(cur, dst topology.NodeID, in VCInPort, buf []VirtualDirection) []VirtualDirection {
	if cur == p.at {
		panic("panics-at: boom")
	}
	return p.VCAlgorithm.CandidatesVC(cur, dst, in, buf)
}

// TestCompilePanicReachesCaller: a relation that panics inside a
// worker goroutine panics on Compile's caller, where it can be
// recovered, instead of killing the process.
func TestCompilePanicReachesCaller(t *testing.T) {
	alg := panicsAt{AsVC(NewWestFirst(topology.NewMesh(8, 8))), 50}
	withProcs(4, func() {
		defer func() {
			if r := recover(); r != "panics-at: boom" {
				t.Errorf("recovered %v, want the relation's panic", r)
			}
		}()
		Compile(alg)
		t.Error("Compile returned instead of panicking")
	})
}

// TestCompileAllocs: a build allocates per row at most — the
// relation's evaluations allocate nothing — so a 16x16 west-first
// table (65280 node pairs, 256 rows) stays under one allocation per
// row.
func TestCompileAllocs(t *testing.T) {
	alg := AsVC(NewWestFirst(topology.NewMesh(16, 16)))
	rows := float64(alg.Topology().Nodes())
	if got := testing.AllocsPerRun(3, func() { Compile(alg) }); got > rows {
		t.Errorf("Compile allocates %.0f times, want at most %.0f (one per row)", got, rows)
	}
}

// BenchmarkCompile times one route-table build of the figures' two
// topologies: the 16x16 mesh and the 8-cube.
func BenchmarkCompile(b *testing.B) {
	for _, alg := range []VCAlgorithm{
		AsVC(NewWestFirst(topology.NewMesh(16, 16))),
		AsVC(NewPCube(topology.NewHypercube(8))),
	} {
		b.Run(alg.Name(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Compile(alg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
