package sim

import (
	"testing"

	"turnmodel/internal/routing"
	"turnmodel/internal/topology"
	"turnmodel/internal/traffic"
)

// latencyAt measures a single uncontended packet's latency in cycles
// for a given switching mode and travel distance along a mesh row.
func latencyAt(t *testing.T, sw Switching, dist, length int) int64 {
	t.Helper()
	topo := topology.NewMesh(16, 2)
	src := topo.ID(topology.Coord{0, 0})
	dst := topo.ID(topology.Coord{dist, 0})
	e, err := New(Config{
		Algorithm: routing.NewDimensionOrder(topo),
		Script:    []ScriptedMessage{{Cycle: 0, Src: src, Dst: dst, Length: length}},
		Switching: sw,
	})
	if err != nil {
		t.Fatal(err)
	}
	var lat int64 = -1
	e.onDeliver = func(p *packet) { lat = p.deliverCycle - p.genCycle }
	if res := e.run(); res.Deadlocked || lat < 0 {
		t.Fatalf("%v: packet not delivered", sw)
	}
	return lat
}

// TestSwitchingLatencyScaling reproduces the introduction's comparison:
// store-and-forward latency is proportional to the product of packet
// length and distance; wormhole and virtual cut-through to their sum.
func TestSwitchingLatencyScaling(t *testing.T) {
	const length = 24
	for _, sw := range []Switching{Wormhole, VirtualCutThrough} {
		d6 := latencyAt(t, sw, 6, length)
		d12 := latencyAt(t, sw, 12, length)
		// Six extra hops cost six extra cycles.
		if got := d12 - d6; got != 6 {
			t.Errorf("%v: 6 extra hops cost %d cycles, want 6", sw, got)
		}
		ideal := int64(6 + length)
		if d6 < ideal || d6 > ideal+6 {
			t.Errorf("%v: latency at distance 6 = %d, want about %d", sw, d6, ideal)
		}
	}
	d6 := latencyAt(t, StoreAndForward, 6, length)
	d12 := latencyAt(t, StoreAndForward, 12, length)
	// Six extra hops cost about six more packet times.
	if got := d12 - d6; got < 6*(length-2) || got > 6*(length+2) {
		t.Errorf("store-and-forward: 6 extra hops cost %d cycles, want about %d", got, 6*length)
	}
	if d6 < int64(6*length) {
		t.Errorf("store-and-forward latency %d below the L*D floor %d", d6, 6*length)
	}
}

// TestVirtualCutThroughCompressesBlockedPackets: a blocked packet
// collapses into the blocking router's buffer under VCT, releasing the
// channels behind it; under wormhole its worm keeps them allocated.
func TestVirtualCutThroughCompression(t *testing.T) {
	topo := topology.NewMesh(8, 4)
	at := func(x, y int) topology.NodeID { return topo.ID(topology.Coord{x, y}) }
	// P0 arrives at (3,0) from the north and occupies its ejection
	// channel for 200 cycles. P1's 60-flit packet from (0,0) blocks
	// behind it, entering from the west. P2 then wants the east channels
	// of row 0, which P1's worm holds under wormhole but has released
	// under VCT (its flits all fit in (3,0)'s packet-sized buffer).
	script := []ScriptedMessage{
		{Cycle: 0, Src: at(3, 1), Dst: at(3, 0), Length: 200},
		{Cycle: 3, Src: at(0, 0), Dst: at(3, 0), Length: 60},
		{Cycle: 80, Src: at(1, 0), Dst: at(2, 1), Length: 10},
	}
	finish := func(sw Switching) int64 {
		e, err := New(Config{
			Algorithm: routing.NewDimensionOrder(topo),
			Script:    script,
			Switching: sw,
		})
		if err != nil {
			t.Fatal(err)
		}
		var p2done int64 = -1
		e.onDeliver = func(p *packet) {
			if p.src == at(1, 0) {
				p2done = p.deliverCycle
			}
		}
		if res := e.run(); res.Deadlocked || p2done < 0 {
			t.Fatalf("%v: p2 not delivered", sw)
		}
		return p2done
	}
	wh := finish(Wormhole)
	vct := finish(VirtualCutThrough)
	if vct+50 > wh {
		t.Errorf("VCT should deliver P2 much earlier than wormhole: vct=%d wormhole=%d", vct, wh)
	}
}

// TestSwitchingModesDeliverStochastic: all three modes run the standard
// workload to completion with sensible results.
func TestSwitchingModesDeliverStochastic(t *testing.T) {
	topo := topology.NewMesh(8, 8)
	for _, sw := range []Switching{Wormhole, StoreAndForward, VirtualCutThrough} {
		res, err := Run(Config{
			Algorithm: routing.NewDimensionOrder(topo),
			Pattern:   traffic.NewUniform(topo),
			// Short packets keep store-and-forward's product latency
			// inside the test budget.
			Lengths:       []int{8},
			OfferedLoad:   0.5,
			WarmupCycles:  1000,
			MeasureCycles: 5000,
			Seed:          13,
			Switching:     sw,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.PacketsDelivered == 0 || res.Deadlocked {
			t.Errorf("%v: bad run %+v", sw, res)
		}
		if sw.String() == "" {
			t.Error("empty switching name")
		}
	}
}

// TestWormholeBlockingSpansRouters: the defining wormhole behaviour —
// when the header blocks, "all of the flits in the packet wait where
// they are", spread across the routers along the path.
func TestWormholeBlockingSpansRouters(t *testing.T) {
	topo := topology.NewMesh(8, 2)
	at := func(x, y int) topology.NodeID { return topo.ID(topology.Coord{x, y}) }
	e, err := New(Config{
		Algorithm: routing.NewDimensionOrder(topo),
		Script: []ScriptedMessage{
			{Cycle: 0, Src: at(5, 0), Dst: at(6, 0), Length: 400}, // blocker on ejection
			{Cycle: 3, Src: at(0, 0), Dst: at(6, 0), Length: 40},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Run 120 cycles, then inspect buffer occupancy: with one-flit
	// buffers the blocked worm must occupy one flit in each of several
	// consecutive routers.
	for i := 0; i < 120; i++ {
		e.step()
		e.cycle++
	}
	occupied := 0
	for i := range e.bq {
		for r := int32(0); r < e.bq[i].runs; r++ {
			if e.runAt(int32(i), r).p.src == at(0, 0) {
				occupied++
				break
			}
		}
	}
	if occupied < 4 {
		t.Errorf("blocked worm occupies %d buffers, want several routers' worth", occupied)
	}
}
