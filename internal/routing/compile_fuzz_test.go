package routing

import (
	"fmt"
	"testing"

	"turnmodel/internal/core"
	"turnmodel/internal/topology"
)

// fuzzTopology decodes a small topology: shape%3 picks a mesh, a torus
// or a hypercube with 1 + (shape/3)%3 dimensions, and size gives the
// lengths (2 to 5 nodes; per dimension, two bits each, on a mesh).
func fuzzTopology(shape, size uint8) *topology.Topology {
	nd := 1 + int(shape/3)%3
	switch shape % 3 {
	case 0:
		dims := make([]int, nd)
		for i := range dims {
			dims[i] = 2 + int(size>>(2*i))&3
		}
		return topology.NewMesh(dims...)
	case 1:
		return topology.NewTorus(2+int(size)%4, nd)
	default:
		return topology.NewHypercube(nd)
	}
}

// fuzzRelations lists the relations valid on t, key parameterising the
// ones that take a turn set or a dimension. Besides the registry
// relations it includes the test relations that exercise the filter
// (detourVC), the verification path (plainVC) and an injected-only
// restriction (firstDirVC).
func fuzzRelations(t *topology.Topology, key uint8) []VCAlgorithm {
	nd := t.NumDims()
	algs := []VCAlgorithm{
		AsVC(NewDimensionOrder(t)),
		AsVC(NewNegativeFirst(t)),
		AsVC(NewFullyAdaptive(t)),
		AsVC(NewABONF(t, int(key)%nd)),
		AsVC(NewABOPL(t, int(key)%nd)),
		detourVC{t},
		plainVC{AsVC(NewNegativeFirst(t))},
		firstDirVC{AsVC(NewFullyAdaptive(t)), topology.DirectionFromIndex(int(key) % (2 * nd))},
	}
	if nd == 2 {
		set := core.SetFromKey2D(uint16(key))
		algs = append(algs,
			AsVC(NewWestFirst(t)),
			AsVC(NewNorthLast(t)),
			AsVC(NewTurnGraphRouting(t, set, true)),
			AsVC(NewTurnGraphRouting(t, set, false)),
		)
		if t.Kind() == topology.KindMesh {
			algs = append(algs, NewDoubleY(t))
		}
	}
	if t.IsHypercube() {
		algs = append(algs, AsVC(NewPCube(t)))
	}
	if t.Kind() == topology.KindTorus {
		algs = append(algs,
			AsVC(NewTorusDOR(t)),
			NewDatelineDOR(t),
			AsVC(NewNegativeFirstTorus(t)),
			AsVC(NewWrapFirstHop(NewNegativeFirst(t))),
		)
	}
	return algs
}

// firstArrivalDependence returns the first (cur, dst) pair, in
// row-major order, at which two arrival ports get different filtered
// candidates from direct evaluation.
func firstArrivalDependence(alg VCAlgorithm) (cur, dst topology.NodeID, ok bool) {
	t := alg.Topology()
	n := topology.NodeID(t.Nodes())
	for cur := topology.NodeID(0); cur < n; cur++ {
		ports := arrivalPorts(t, cur, alg.NumVCs())
		for dst := topology.NodeID(0); dst < n; dst++ {
			if cur == dst || len(ports) == 0 {
				continue
			}
			first := directCands(alg, cur, dst, ports[0])
			for _, in := range ports[1:] {
				if !candsEqual(first, directCands(alg, cur, dst, in)) {
					return cur, dst, true
				}
			}
		}
	}
	return 0, 0, false
}

// FuzzCompileMatchesDirect decodes a small mesh, torus or hypercube, a
// relation valid on it and up to three disabled channels, and requires
// one of two outcomes: Compile refuses, naming the first pair at which
// direct evaluation depends on the arrival port, exactly when there is
// such a pair; or every table entry equals the direct, filtered
// evaluation at every arrival port.
func FuzzCompileMatchesDirect(f *testing.F) {
	f.Fuzz(func(t *testing.T, shape, size, rel, key uint8, faults uint32) {
		topo := fuzzTopology(shape, size)
		algs := fuzzRelations(topo, key)
		alg := algs[int(rel)%len(algs)]
		var chans []topology.Channel
		topo.Channels(func(c topology.Channel) { chans = append(chans, c) })
		for i := 0; i < int(faults%4); i++ {
			c := chans[int(faults>>(2+10*i))&1023%len(chans)]
			if err := topo.DisableChannel(c); err != nil {
				t.Fatal(err)
			}
		}
		tab, err := Compile(alg)
		cur, dst, dependent := firstArrivalDependence(alg)
		switch {
		case dependent:
			want := fmt.Sprintf("routing: %s depends on the arrival port at node %d (dst %d); not compilable", alg.Name(), cur, dst)
			if err == nil || err.Error() != want {
				t.Fatalf("%v, %s: Compile error %v, want %q", topo, alg.Name(), err, want)
			}
		case err != nil:
			t.Fatalf("%v, %s: Compile refused an arrival-invariant relation: %v", topo, alg.Name(), err)
		default:
			checkTable(t, alg, tab)
		}
	})
}
