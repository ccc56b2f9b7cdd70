package sim

import (
	"turnmodel/internal/topology"
)

// Observer receives simulation events, for debugging, visualization and
// custom measurement. All callbacks run synchronously on the simulation
// goroutine; implementations must not retain the arguments beyond the
// call. A nil observer costs one branch per event.
//
// Within a cycle, events come in no specified order; the set of events
// each cycle delivers is exact (one Forward per flit per channel
// crossed, and so on) and reproducible for a given seed.
type Observer interface {
	// Inject fires when a packet's header flit enters its source router.
	Inject(cycle int64, src, dst topology.NodeID, length int)
	// Allocate fires when a header is granted an output channel; vc is
	// the virtual channel (0 for single-channel relations) and eject
	// marks the destination's ejection channel (dir is meaningless then).
	Allocate(cycle int64, at topology.NodeID, dir topology.Direction, vc int, eject bool)
	// Forward fires for every flit crossing a network channel. Within a
	// cycle these events come in no specified order (a worm moving as a
	// unit reports its flits front to rear); the cycle's set of Forward
	// events is exact.
	Forward(cycle int64, ch topology.Channel, vc int, head, tail bool)
	// Deliver fires when a packet's tail flit is consumed.
	Deliver(cycle int64, src, dst topology.NodeID, latencyCycles int64, hops int)
}

// ObserverFuncs adapts individual callbacks to the Observer interface
// (and, via AbortFn, to RecoveryObserver); nil fields are skipped.
type ObserverFuncs struct {
	InjectFn   func(cycle int64, src, dst topology.NodeID, length int)
	AllocateFn func(cycle int64, at topology.NodeID, dir topology.Direction, vc int, eject bool)
	ForwardFn  func(cycle int64, ch topology.Channel, vc int, head, tail bool)
	DeliverFn  func(cycle int64, src, dst topology.NodeID, latencyCycles int64, hops int)
	AbortFn    func(cycle int64, src, dst topology.NodeID, flitsDrained, channelsReleased, retry int, dropped bool)
}

// Inject implements Observer.
func (o ObserverFuncs) Inject(cycle int64, src, dst topology.NodeID, length int) {
	if o.InjectFn != nil {
		o.InjectFn(cycle, src, dst, length)
	}
}

// Allocate implements Observer.
func (o ObserverFuncs) Allocate(cycle int64, at topology.NodeID, dir topology.Direction, vc int, eject bool) {
	if o.AllocateFn != nil {
		o.AllocateFn(cycle, at, dir, vc, eject)
	}
}

// Forward implements Observer.
func (o ObserverFuncs) Forward(cycle int64, ch topology.Channel, vc int, head, tail bool) {
	if o.ForwardFn != nil {
		o.ForwardFn(cycle, ch, vc, head, tail)
	}
}

// Deliver implements Observer.
func (o ObserverFuncs) Deliver(cycle int64, src, dst topology.NodeID, latencyCycles int64, hops int) {
	if o.DeliverFn != nil {
		o.DeliverFn(cycle, src, dst, latencyCycles, hops)
	}
}

// Abort implements RecoveryObserver.
func (o ObserverFuncs) Abort(cycle int64, src, dst topology.NodeID, flitsDrained, channelsReleased, retry int, dropped bool) {
	if o.AbortFn != nil {
		o.AbortFn(cycle, src, dst, flitsDrained, channelsReleased, retry, dropped)
	}
}

// ChannelOccupancy accumulates per-channel flit counts from Forward
// events — a ready-made observer for heat-map style analysis and for
// validating the analytic channel-load model against a live run.
type ChannelOccupancy struct {
	topo   *topology.Topology
	counts []int64
	total  int64
}

// NewChannelOccupancy returns an occupancy recorder for t.
func NewChannelOccupancy(t *topology.Topology) *ChannelOccupancy {
	return &ChannelOccupancy{topo: t, counts: make([]int64, t.NumChannelIDs())}
}

// Observer returns the recorder as an Observer.
func (c *ChannelOccupancy) Observer() Observer {
	return ObserverFuncs{ForwardFn: func(_ int64, ch topology.Channel, _ int, _, _ bool) {
		c.counts[c.topo.ChannelID(ch)]++
		c.total++
	}}
}

// Count returns the flits that crossed ch.
func (c *ChannelOccupancy) Count(ch topology.Channel) int64 { return c.counts[c.topo.ChannelID(ch)] }

// Total returns all network flit crossings observed.
func (c *ChannelOccupancy) Total() int64 { return c.total }

// Hottest returns the busiest channel and its count.
func (c *ChannelOccupancy) Hottest() (topology.Channel, int64) {
	best, idx := int64(-1), 0
	for i, n := range c.counts {
		if n > best {
			best, idx = n, i
		}
	}
	return c.topo.ChannelFromID(idx), best
}
