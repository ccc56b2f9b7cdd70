package sim

import (
	"testing"

	"turnmodel/internal/core"
	"turnmodel/internal/routing"
	"turnmodel/internal/topology"
	"turnmodel/internal/traffic"
)

// livePackets walks every container that can hold a packet reference —
// the per-source queue rings and every input buffer's runs — and
// returns the id->pointer map of in-flight packets. Two distinct
// pointers sharing an id, or one pointer carrying two ids, is aliasing:
// a recycled packet handed out while still referenced.
func livePackets(t *testing.T, e *Engine) map[int64]*packet {
	t.Helper()
	live := map[int64]*packet{}
	byPtr := map[*packet]int64{}
	note := func(p *packet, where string) {
		if p == nil {
			t.Fatalf("cycle %d: nil packet in %s", e.cycle, where)
		}
		if prev, ok := live[p.id]; ok && prev != p {
			t.Fatalf("cycle %d: id %d held by two distinct packets (%s)", e.cycle, p.id, where)
		}
		if prevID, ok := byPtr[p]; ok && prevID != p.id {
			t.Fatalf("cycle %d: packet %p changed id %d -> %d while live (%s)", e.cycle, p, prevID, p.id, where)
		}
		live[p.id] = p
		byPtr[p] = p.id
	}
	for v := range e.queues {
		q := &e.queues[v]
		for j := 0; j < q.len(); j++ {
			note(q.at(j), "source queue")
		}
	}
	for i := range e.bq {
		for r := int32(0); r < e.bq[i].runs; r++ {
			note(e.runAt(int32(i), r).p, "input buffer")
		}
	}
	return live
}

// checkRecycling asserts the freelist invariants at one instant:
// nothing on the freelist is still referenced by a live container, and
// every genuinely delivered packet on it (length > 0 distinguishes it
// from never-used chunk spares) retired with all flits accounted for.
func checkRecycling(t *testing.T, e *Engine, live map[int64]*packet, released map[*packet]int64) {
	t.Helper()
	liveSet := map[*packet]bool{}
	for _, p := range live {
		liveSet[p] = true
	}
	for _, p := range e.freePkts {
		if liveSet[p] {
			t.Fatalf("cycle %d: freelist packet id %d still referenced by a live container", e.cycle, p.id)
		}
		if p.length > 0 {
			if p.flitsDelivered != p.length {
				t.Fatalf("cycle %d: released packet id %d delivered %d of %d flits",
					e.cycle, p.id, p.flitsDelivered, p.length)
			}
			if p.deliverCycle < p.injectCycle || p.injectCycle < p.genCycle {
				t.Fatalf("cycle %d: released packet id %d has inconsistent lifetime gen=%d inject=%d deliver=%d",
					e.cycle, p.id, p.genCycle, p.injectCycle, p.deliverCycle)
			}
		}
		released[p] = p.id
	}
	// A reacquired pointer must have been reset and renumbered: ids are
	// assigned from a monotone counter, so a live id at or below the id
	// the pointer retired with means stale state leaked back out.
	for _, p := range live {
		if prevID, ok := released[p]; ok {
			if p.id <= prevID {
				t.Fatalf("cycle %d: recycled packet reappeared live with stale id %d (retired as %d)",
					e.cycle, p.id, prevID)
			}
			delete(released, p)
		}
	}
}

// TestPacketRecyclingProperty: across all three switching modes and
// both routing paths (compiled table and direct fallback), with a
// channel failing mid-run, recycled packets never alias live ones.
func TestPacketRecyclingProperty(t *testing.T) {
	const (
		cycles     = 1200
		faultCycle = 400
	)
	for _, sw := range []Switching{Wormhole, StoreAndForward, VirtualCutThrough} {
		for _, tc := range []struct {
			name string
			cfg  func(topo *topology.Topology) Config
		}{
			{"table-west-first", func(topo *topology.Topology) Config {
				return Config{Algorithm: routing.NewWestFirst(topo)}
			}},
			{"fallback-turn-graph", func(topo *topology.Topology) Config {
				return Config{
					Algorithm:     routing.NewTurnGraphRouting(topo, core.WestFirstSet(), false),
					MisrouteAfter: 4,
				}
			}},
		} {
			t.Run(sw.String()+"/"+tc.name, func(t *testing.T) {
				topo := topology.NewMesh(6, 6)
				broken := topology.Channel{From: topo.ID(topology.Coord{2, 2}), Dir: topology.Direction{Dim: 0, Pos: true}}
				defer topo.EnableChannel(broken)

				cfg := tc.cfg(topo)
				cfg.Pattern = traffic.NewUniform(topo)
				cfg.OfferedLoad = 2.0
				cfg.Switching = sw
				cfg.WarmupCycles = 1 << 30 // hand-stepped; never flips measuring
				cfg.MeasureCycles = 1
				cfg.Seed = 7
				e, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if tc.name == "table-west-first" && e.table == nil {
					t.Fatal("west-first should run on a compiled table")
				}
				if tc.name == "fallback-turn-graph" && e.table != nil {
					t.Fatal("turn-graph routing is arrival-dependent and must fall back")
				}

				released := map[*packet]int64{}
				recycledOnce := false
				for i := 0; i < cycles; i++ {
					if e.cycle == faultCycle {
						topo.DisableChannel(broken)
					}
					e.step()
					e.cycle++
					live := livePackets(t, e)
					checkRecycling(t, e, live, released)
					if !recycledOnce {
						for _, p := range e.freePkts {
							if p.length > 0 {
								recycledOnce = true
								break
							}
						}
					}
				}
				if e.inFlight == 0 {
					t.Fatal("no traffic in flight; test would be vacuous")
				}
				if !recycledOnce {
					t.Fatal("no packet was ever released to the freelist; property never exercised")
				}
			})
		}
	}
}

// TestPacketFreelistReset: a released packet comes back from newPacket
// fully zeroed, and the freelist hands back the same storage.
func TestPacketFreelistReset(t *testing.T) {
	topo := topology.NewMesh(3, 3)
	e, err := New(Config{
		Algorithm: routing.NewDimensionOrder(topo),
		Script:    []ScriptedMessage{{Cycle: 0, Src: 0, Dst: 8, Length: 4}},
	})
	if err != nil {
		t.Fatal(err)
	}
	p := e.newPacket()
	dir := topology.Direction{Dim: 1, Pos: true}
	*p = packet{
		id: 42, src: 1, dst: 2, length: 7, firstDir: &dir,
		genCycle: 3, injectCycle: 4, deliverCycle: 5,
		flitsSent: 7, flitsDelivered: 7, hops: 6,
	}
	e.releasePacket(p)
	q := e.newPacket()
	if q != p {
		t.Fatalf("freelist did not recycle the released packet: got %p, want %p", q, p)
	}
	if *q != (packet{}) {
		t.Errorf("recycled packet not reset: %+v", *q)
	}
}
