package routing

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"turnmodel/internal/core"
	"turnmodel/internal/topology"
)

// directCands is the oracle the compiled table must match, written
// independently of the compiler: one CandidatesVC evaluation filtered
// exactly as the simulator's direct-evaluation fallback filters it —
// virtual channel in range, channel existing and enabled — with the
// output index spelled out from the simulator's port layout and
// profitability from the topology's distances.
func directCands(alg VCAlgorithm, cur, dst topology.NodeID, in VCInPort) []Candidate {
	t := alg.Topology()
	vcs := alg.NumVCs()
	vport := 2*t.NumDims()*vcs + 1
	var out []Candidate
	for _, vd := range alg.CandidatesVC(cur, dst, in, nil) {
		if vd.VC < 0 || vd.VC >= vcs || !t.HasChannel(cur, vd.Dir) || !t.Enabled(topology.Channel{From: cur, Dir: vd.Dir}) {
			continue
		}
		next, _ := t.Neighbor(cur, vd.Dir)
		out = append(out, Candidate{
			Out:  int32(int(cur)*vport + vd.Dir.Index()*vcs + vd.VC),
			Dir:  uint8(vd.Dir.Index()),
			VC:   uint8(vd.VC),
			Prof: t.Distance(next, dst) < t.Distance(cur, dst),
		})
	}
	return out
}

// arrivalPorts enumerates every (direction, vc) a packet can arrive at
// cur on.
func arrivalPorts(t *topology.Topology, cur topology.NodeID, vcs int) []VCInPort {
	var ports []VCInPort
	for di := 0; di < 2*t.NumDims(); di++ {
		d := topology.DirectionFromIndex(di)
		if !t.HasChannel(cur, d.Opposite()) {
			continue
		}
		for vc := 0; vc < vcs; vc++ {
			ports = append(ports, VCInPort{Dir: d, VC: vc})
		}
	}
	return ports
}

// checkTable compares tab against the direct oracle for every (node,
// destination, arrival) tuple: the injected lookup against an injected
// evaluation, and the arrived lookup against an evaluation at every
// port a packet can arrive on.
func checkTable(t *testing.T, alg VCAlgorithm, tab *Table) {
	t.Helper()
	topo := alg.Topology()
	n := topo.Nodes()
	for cur := topology.NodeID(0); cur < topology.NodeID(n); cur++ {
		for dst := topology.NodeID(0); dst < topology.NodeID(n); dst++ {
			if cur == dst {
				continue
			}
			want := directCands(alg, cur, dst, VCInjected)
			if got := tab.Lookup(cur, dst, true); !candsEqual(got, want) {
				t.Fatalf("%s: injected lookup %d->%d = %v, want %v", alg.Name(), cur, dst, got, want)
			}
			arr := tab.Lookup(cur, dst, false)
			for _, in := range arrivalPorts(topo, cur, alg.NumVCs()) {
				want := directCands(alg, cur, dst, in)
				if !candsEqual(arr, want) {
					t.Fatalf("%s: arrived lookup %d->%d via %v = %v, want %v", alg.Name(), cur, dst, in, arr, want)
				}
			}
		}
	}
}

// firstDirVC restricts injected headers to one first-hop direction
// whenever the inner relation offers it, as a scripted message's
// FirstDir does; arrived headers see the inner relation unchanged.
type firstDirVC struct {
	inner VCAlgorithm
	dir   topology.Direction
}

func (f firstDirVC) Name() string                 { return "first-dir-" + f.inner.Name() }
func (f firstDirVC) Topology() *topology.Topology { return f.inner.Topology() }
func (f firstDirVC) NumVCs() int                  { return f.inner.NumVCs() }
func (f firstDirVC) CandidatesVC(cur, dst topology.NodeID, in VCInPort, buf []VirtualDirection) []VirtualDirection {
	start := len(buf)
	buf = f.inner.CandidatesVC(cur, dst, in, buf)
	if !in.Injected {
		return buf
	}
	kept := buf[start:start]
	for _, vd := range buf[start:] {
		if vd.Dir == f.dir {
			kept = append(kept, vd)
		}
	}
	if len(kept) == 0 {
		return buf
	}
	return buf[:start+len(kept)]
}

// detourVC is a misrouting relation: every direction is offered, so
// most candidates are unprofitable detours, and it also names
// directions off the mesh edge and a virtual channel out of range,
// which the filter must drop.
type detourVC struct{ t *topology.Topology }

func (d detourVC) Name() string                 { return "detour" }
func (d detourVC) Topology() *topology.Topology { return d.t }
func (d detourVC) NumVCs() int                  { return 1 }
func (d detourVC) CandidatesVC(cur, dst topology.NodeID, in VCInPort, buf []VirtualDirection) []VirtualDirection {
	for di := 0; di < 2*d.t.NumDims(); di++ {
		buf = append(buf, VirtualDirection{Dir: topology.DirectionFromIndex(di)})
	}
	return append(buf, VirtualDirection{Dir: topology.DirectionFromIndex(0), VC: 1})
}

// TestCompileMatchesDirect: for every built-in relation, topology pair
// and arrival port, Table.Lookup returns exactly the filtered list a
// direct evaluation produces. Beyond the registry relations it covers
// an injected-only first-hop restriction (the shape of a scripted
// FirstDir) and a misrouting relation whose profitability bits vary.
// The "faults" subtests disable channels, let TableFor recompile at
// the new fault epoch, and compare again, then once more after the
// repair.
func TestCompileMatchesDirect(t *testing.T) {
	mesh := topology.NewMesh(5, 4)
	cube := topology.NewHypercube(4)
	torus := topology.NewTorus(5, 2)
	north := topology.Direction{Dim: 1, Pos: true}
	algs := []VCAlgorithm{
		AsVC(NewDimensionOrder(mesh)),
		AsVC(NewWestFirst(mesh)),
		AsVC(NewNorthLast(mesh)),
		AsVC(NewNegativeFirst(mesh)),
		AsVC(NewFullyAdaptive(mesh)),
		AsVC(NewPCube(cube)),
		AsVC(NewTorusDOR(torus)),
		NewDatelineDOR(torus),
		AsVC(NewWrapFirstHop(NewNegativeFirst(torus))),
		AsVC(NewNegativeFirstTorus(torus)),
		NewDoubleY(mesh),
		firstDirVC{AsVC(NewFullyAdaptive(mesh)), north},
		detourVC{mesh},
	}
	for _, alg := range algs {
		tab, err := Compile(alg)
		if err != nil {
			t.Errorf("%s: compile failed: %v", alg.Name(), err)
			continue
		}
		checkTable(t, alg, tab)
	}

	for _, tc := range []struct {
		name string
		mk   func() VCAlgorithm
	}{
		{"negative-first-mesh", func() VCAlgorithm { return AsVC(NewNegativeFirst(topology.NewMesh(5, 4))) }},
		{"fully-adaptive-mesh", func() VCAlgorithm { return AsVC(NewFullyAdaptive(topology.NewMesh(5, 4))) }},
		{"dateline-torus-vc", func() VCAlgorithm { return NewDatelineDOR(topology.NewTorus(5, 2)) }},
		{"first-dir", func() VCAlgorithm { return firstDirVC{AsVC(NewFullyAdaptive(topology.NewMesh(5, 4))), north} }},
		{"detour", func() VCAlgorithm { return detourVC{topology.NewMesh(5, 4)} }},
	} {
		t.Run("faults/"+tc.name, func(t *testing.T) {
			alg := tc.mk()
			topo := alg.Topology()
			before := TableFor(alg)
			if before == nil {
				t.Fatalf("%s: TableFor declined a compilable relation", alg.Name())
			}
			mid := topo.ID(topology.Coord{2, 1})
			broken := []topology.Channel{
				{From: mid, Dir: topology.Direction{Dim: 0, Pos: true}},
				{From: mid, Dir: north},
				{From: topo.ID(topology.Coord{0, 0}), Dir: north},
			}
			for _, ch := range broken {
				topo.DisableChannel(ch)
			}
			faulty := TableFor(alg)
			if faulty == nil || faulty == before || faulty.Epoch() != topo.FaultEpoch() {
				t.Fatalf("%s: no recompile at fault epoch %d", alg.Name(), topo.FaultEpoch())
			}
			checkTable(t, alg, faulty)
			for _, ch := range broken {
				topo.EnableChannel(ch)
			}
			healed := TableFor(alg)
			if healed == nil || healed == faulty || healed.Epoch() != topo.FaultEpoch() {
				t.Fatalf("%s: no recompile after the repair", alg.Name())
			}
			checkTable(t, alg, healed)
		})
	}
}

// TestCompileWrapFirstHopSpans: WrapFirstHop offers wraparounds only to
// injected headers, so the table's injected and arrived spans must
// genuinely differ where a wraparound is on a shortest path.
func TestCompileWrapFirstHopSpans(t *testing.T) {
	torus := topology.NewTorus(6, 2)
	alg := AsVC(NewWrapFirstHop(NewNegativeFirst(torus)))
	tab, err := Compile(alg)
	if err != nil {
		t.Fatal(err)
	}
	// Node (0,0) to (5,0): the -x wraparound is the shortest way, offered
	// when injected only.
	cur := torus.ID(topology.Coord{0, 0})
	dst := torus.ID(topology.Coord{5, 0})
	inj := tab.Lookup(cur, dst, true)
	arr := tab.Lookup(cur, dst, false)
	if candsEqual(inj, arr) {
		t.Fatalf("injected and arrived candidates should differ at %d->%d: both %v", cur, dst, inj)
	}
	hasNegX := func(cs []Candidate) bool {
		for _, c := range cs {
			if c.Direction() == (topology.Direction{Dim: 0, Pos: false}) {
				return true
			}
		}
		return false
	}
	if !hasNegX(inj) {
		t.Errorf("injected candidates %v should offer the -x wraparound", inj)
	}
	if hasNegX(arr) {
		t.Errorf("arrived candidates %v should not offer the -x wraparound", arr)
	}
}

// plainVC ignores the arrival port but does not declare
// ArrivalInvariant, exercising the exhaustive verification path.
type plainVC struct{ inner VCAlgorithm }

func (p plainVC) Name() string                 { return "plain-" + p.inner.Name() }
func (p plainVC) Topology() *topology.Topology { return p.inner.Topology() }
func (p plainVC) NumVCs() int                  { return p.inner.NumVCs() }
func (p plainVC) CandidatesVC(cur, dst topology.NodeID, _ VCInPort, buf []VirtualDirection) []VirtualDirection {
	return p.inner.CandidatesVC(cur, dst, VCInjected, buf)
}

func TestCompileVerifiesUnmarkedRelations(t *testing.T) {
	mesh := topology.NewMesh(4, 4)
	alg := plainVC{AsVC(NewNegativeFirst(mesh))}
	if _, ok := VCAlgorithm(alg).(ArrivalInvariant); ok {
		t.Fatal("plainVC must not implement ArrivalInvariant for this test to exercise verification")
	}
	tab, err := Compile(alg)
	if err != nil {
		t.Fatalf("verification should accept an arrival-invariant relation: %v", err)
	}
	cur, dst := topology.NodeID(5), topology.NodeID(10)
	if got, want := tab.Lookup(cur, dst, false), directCands(alg, cur, dst, VCInjected); !candsEqual(got, want) {
		t.Errorf("verified table lookup %v, want %v", got, want)
	}
}

// TestCompileArrivalDependentFails: turn-graph routing genuinely
// consults the arrival direction (it forbids turns), so compilation
// must refuse it and TableFor must report it as uncompilable.
func TestCompileArrivalDependentFails(t *testing.T) {
	mesh := topology.NewMesh(4, 4)
	alg := AsVC(NewTurnGraphRouting(mesh, core.WestFirstSet(), false))
	if _, err := Compile(alg); err == nil {
		t.Fatal("Compile accepted an arrival-dependent relation")
	}
	if tab := TableFor(alg); tab != nil {
		t.Fatal("TableFor returned a table for an arrival-dependent relation")
	}
	// The failure is sticky: a second call short-circuits to nil.
	if tab := TableFor(alg); tab != nil {
		t.Fatal("sticky failure not honored")
	}
}

// TestTableForCacheAndFaultInvalidation: TableFor reuses compilations
// per algorithm value and recompiles when the fault set changes, with
// faulty channels filtered out of the new table.
func TestTableForCacheAndFaultInvalidation(t *testing.T) {
	mesh := topology.NewMesh(4, 4)
	alg := AsVC(NewNegativeFirst(mesh))
	t1 := TableFor(alg)
	if t1 == nil {
		t.Fatal("TableFor failed for a compilable relation")
	}
	if t2 := TableFor(alg); t2 != t1 {
		t.Fatal("TableFor did not reuse the cached table")
	}
	broken := topology.Channel{From: mesh.ID(topology.Coord{1, 1}), Dir: topology.Direction{Dim: 0, Pos: false}}
	mesh.DisableChannel(broken)
	defer mesh.EnableChannel(broken)
	t3 := TableFor(alg)
	if t3 == nil || t3 == t1 {
		t.Fatal("TableFor did not recompile after a fault change")
	}
	if t3.Epoch() != mesh.FaultEpoch() {
		t.Errorf("recompiled table epoch %d, want %d", t3.Epoch(), mesh.FaultEpoch())
	}
	// Every lookup at the faulty node must exclude the disabled channel.
	for dst := topology.NodeID(0); dst < topology.NodeID(mesh.Nodes()); dst++ {
		if dst == broken.From {
			continue
		}
		for _, injected := range []bool{true, false} {
			for _, c := range t3.Lookup(broken.From, dst, injected) {
				if c.Direction() == broken.Dir {
					t.Fatalf("table offers the disabled channel %v for dst %d", broken, dst)
				}
			}
		}
	}
}

// TestTableKeptWhileRelationHeld: a relation's table lives on the
// relation, so compiling tables for many other relations — more than
// any cache capacity — never costs a held relation its table.
func TestTableKeptWhileRelationHeld(t *testing.T) {
	held := AsVC(NewDimensionOrder(topology.NewMesh(2, 2)))
	tab := TableFor(held)
	if tab == nil {
		t.Fatal("TableFor declined a compilable relation")
	}
	for i := 0; i < 100; i++ {
		if TableFor(AsVC(NewDimensionOrder(topology.NewMesh(2, 2)))) == nil {
			t.Fatal("TableFor declined a compilable relation")
		}
	}
	c := CompileCount()
	if got := TableFor(held); got != tab || CompileCount() != c {
		t.Errorf("held relation's table was recompiled (got %p, want %p)", got, tab)
	}
}

// TestTableForConcurrentCallers: simulations sharing one relation call
// TableFor at once; they must all get the one table, compiled once.
func TestTableForConcurrentCallers(t *testing.T) {
	alg := AsVC(NewWestFirst(topology.NewMesh(6, 6)))
	c := CompileCount()
	tabs := make([]*Table, 8)
	var wg sync.WaitGroup
	for i := range tabs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tabs[i] = TableFor(alg)
		}(i)
	}
	wg.Wait()
	for _, tab := range tabs {
		if tab == nil || tab != tabs[0] {
			t.Fatalf("concurrent callers got different tables: %p vs %p", tab, tabs[0])
		}
	}
	if d := CompileCount() - c; d != 1 {
		t.Errorf("%d compilations for one relation, want 1", d)
	}
}

// TestTableCollectedWithRelation: nothing outside a relation keeps its
// table, so once the relation is unreachable the garbage collector
// reclaims the table too. This is the memory bound for processes that
// churn through short-lived relations.
func TestTableCollectedWithRelation(t *testing.T) {
	collected := make(chan struct{})
	func() {
		tab := TableFor(AsVC(NewNegativeFirst(topology.NewMesh(4, 4))))
		if tab == nil {
			t.Fatal("TableFor declined a compilable relation")
		}
		runtime.SetFinalizer(tab, func(*Table) { close(collected) })
	}()
	for i := 0; i < 50; i++ {
		runtime.GC()
		select {
		case <-collected:
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatal("the table of an unreachable relation was not collected")
}

// TestCandidateOutIndex: the packed output index matches the canonical
// simulator layout formula for a multi-VC relation.
func TestCandidateOutIndex(t *testing.T) {
	torus := topology.NewTorus(5, 2)
	alg := VCAlgorithm(NewDatelineDOR(torus))
	tab, err := Compile(alg)
	if err != nil {
		t.Fatal(err)
	}
	vcs, ndim := alg.NumVCs(), torus.NumDims()
	vport := 2*ndim*vcs + 1
	for cur := topology.NodeID(0); cur < topology.NodeID(torus.Nodes()); cur++ {
		for dst := topology.NodeID(0); dst < topology.NodeID(torus.Nodes()); dst++ {
			if cur == dst {
				continue
			}
			for _, c := range tab.Lookup(cur, dst, true) {
				want := int32(int(cur)*vport + c.Direction().Index()*vcs + int(c.VC))
				if c.Out != want {
					t.Fatalf("candidate %+v at node %d: out %d, want %d", c, cur, c.Out, want)
				}
			}
		}
	}
}
