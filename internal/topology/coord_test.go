package topology

import "testing"

// divmodCoord is a node's coordinate along dim computed the long way,
// by dividing the dense ID by the dimension's stride.
func divmodCoord(t *Topology, id NodeID, dim int) int {
	stride := 1
	for _, k := range t.dims[:dim] {
		stride *= k
	}
	return int(id) / stride % t.dims[dim]
}

// divmodMinDelta is the shortest signed offset from src to dst along
// dim, from div/mod coordinates: the wraparound way when strictly
// shorter in a wrapping dimension.
func divmodMinDelta(t *Topology, src, dst NodeID, dim int) int {
	d := divmodCoord(t, dst, dim) - divmodCoord(t, src, dim)
	k := t.dims[dim]
	if t.kind == KindTorus && k > 2 {
		if d > k/2 {
			d -= k
		} else if -d > k/2 {
			d += k
		}
	}
	return d
}

// TestCoordCacheMatchesDivMod: every method that reads the cached
// coordinates answers as its div/mod definition does, for every node
// or node pair of meshes, tori and hypercubes.
func TestCoordCacheMatchesDivMod(t *testing.T) {
	for _, topo := range []*Topology{
		NewMesh(16, 16),
		NewMesh(3, 5, 7),
		NewTorus(8, 2),
		NewTorus(5, 1),
		NewTorus(3, 3),
		NewHypercube(8),
		NewHypercube(10),
	} {
		n, nd := NodeID(topo.Nodes()), topo.NumDims()
		for v := NodeID(0); v < n; v++ {
			c := topo.Coord(v)
			for dim := 0; dim < nd; dim++ {
				want := divmodCoord(topo, v, dim)
				if got := topo.CoordOf(v, dim); got != want || c[dim] != want {
					t.Fatalf("%v: node %d dim %d: CoordOf %d, Coord %v, want %d", topo, v, dim, got, c, want)
				}
			}
			for di := 0; di < 2*nd; di++ {
				dir := DirectionFromIndex(di)
				x, k := divmodCoord(topo, v, dir.Dim), topo.dims[dir.Dim]
				nx := x - 1
				if dir.Pos {
					nx = x + 1
				}
				exists := nx >= 0 && nx < k
				if topo.kind == KindTorus && k > 2 {
					exists, nx = true, (nx+k)%k
				}
				wantTo := v
				if exists {
					nc := append(Coord(nil), c...)
					nc[dir.Dim] = nx
					wantTo = topo.ID(nc)
				}
				if got := topo.HasChannel(v, dir); got != exists {
					t.Fatalf("%v: HasChannel(%d, %v) = %v, want %v", topo, v, dir, got, exists)
				}
				if to, ok := topo.Neighbor(v, dir); to != wantTo || ok != exists {
					t.Fatalf("%v: Neighbor(%d, %v) = %d, %v, want %d, %v", topo, v, dir, to, ok, wantTo, exists)
				}
			}
		}
		for src := NodeID(0); src < n; src++ {
			for dst := NodeID(0); dst < n; dst++ {
				dist := 0
				for dim := 0; dim < nd; dim++ {
					delta := divmodCoord(topo, dst, dim) - divmodCoord(topo, src, dim)
					if got := topo.Delta(src, dst, dim); got != delta {
						t.Fatalf("%v: Delta(%d, %d, %d) = %d, want %d", topo, src, dst, dim, got, delta)
					}
					md := divmodMinDelta(topo, src, dst, dim)
					if got := topo.MinDelta(src, dst, dim); got != md {
						t.Fatalf("%v: MinDelta(%d, %d, %d) = %d, want %d", topo, src, dst, dim, got, md)
					}
					dist += max(md, -md)
				}
				if got := topo.Distance(src, dst); got != dist {
					t.Fatalf("%v: Distance(%d, %d) = %d, want %d", topo, src, dst, got, dist)
				}
			}
		}
	}
}
