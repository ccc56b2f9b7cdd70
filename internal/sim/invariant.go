package sim

import (
	"fmt"
	"sort"
)

// CheckInvariants verifies the engine's structural invariants and
// returns the first violation found, or nil. It is safe to call between
// cycles (not from inside a phase). The laws checked:
//
//   - channel-hold bijection: busyBy[out] == in iff bq[in].out ==
//     out;
//   - buffer bounds: no input buffer exceeds the configured depth, and
//     its runs are nonempty, hold its flit count, and never repeat a
//     packet back to back;
//   - flowing consistency: an input is marked flowing iff it holds a
//     flit and an allocated output — and, under the worm-level move,
//     is its worm's front, the worm filling one buffer per flit from
//     front to rear;
//   - flit conservation: flits injected == flits delivered + flits
//     drained by recovery + flits currently sitting in buffers, and
//     the buffered flits of each packet are exactly those sent and not
//     yet delivered, each once;
//   - packet conservation: the set of distinct packets in source
//     queues, network buffers and the retry queue is exactly the
//     engine's in-flight count.
//
// Config.CheckInvariants runs this periodically during Run and once at
// the end, recording the first violation in Result.InvariantViolation;
// tests and the cmd-level -check flags call it directly.
func (e *Engine) CheckInvariants() error {
	for out := range e.busyBy {
		in := e.busyBy[out]
		if in < 0 {
			continue
		}
		if int(in) >= len(e.bq) {
			return fmt.Errorf("busyBy[%d] = %d out of range", out, in)
		}
		if got := e.bq[in].out; got != int32(out) {
			return fmt.Errorf("busyBy[%d] = %d but input %d holds output %d", out, in, in, got)
		}
	}
	var buffered int64
	live := make(map[*packet]bool)
	// spans collects each packet's buffered flit indices, run by run.
	spans := make(map[*packet][][2]int32)
	for i := range e.bq {
		in := int32(i)
		q := e.bq[in]
		if int(q.flits) > e.depth {
			return fmt.Errorf("input %d holds %d flits, depth %d", in, q.flits, e.depth)
		}
		buffered += int64(q.flits)
		var flits int32
		for r := int32(0); r < q.runs; r++ {
			run := e.runAt(in, r)
			if run.n <= 0 {
				return fmt.Errorf("input %d: run %d is empty", in, r)
			}
			if prev := e.runAt(in, max(r-1, 0)); r > 0 && prev.p == run.p && prev.seq+prev.n == run.seq {
				return fmt.Errorf("input %d: run %d continues the run before it", in, r)
			}
			flits += run.n
			live[run.p] = true
		}
		if flits != q.flits {
			return fmt.Errorf("input %d: runs hold %d flits, count %d", in, flits, q.flits)
		}
		for r := int32(0); r < q.runs; r++ {
			run := e.runAt(in, r)
			first := run.seq + run.p.shift
			spans[run.p] = append(spans[run.p], [2]int32{first, first + run.n})
		}
		out := e.bq[in].out
		if out >= 0 {
			if int(out) >= len(e.busyBy) {
				return fmt.Errorf("input %d holds output %d, out of range", in, out)
			}
			if got := e.busyBy[out]; got != in {
				return fmt.Errorf("input %d holds output %d but busyBy[%d] = %d", in, out, out, got)
			}
		}
		wantFlowing := out >= 0 && q.flits > 0
		if q.flits > 0 && e.worms {
			// Only worm fronts flow, and every worm fills the buffers
			// from its front back to its rear, one flit in each.
			p := e.frontPkt(in)
			front := e.frontFlit(in) == int32(p.flitsDelivered)
			wantFlowing = wantFlowing && front
			if front && !e.wormDense(in, p) {
				return fmt.Errorf("input %d: the worm of packet %d does not fill one buffer per flit back to input %d",
					in, p.id, p.rearAt)
			}
		}
		if got := e.flowing.get(in); got != wantFlowing {
			return fmt.Errorf("input %d: flowing = %v, want %v (output %d, %d flits)",
				in, got, wantFlowing, out, q.flits)
		}
	}
	for p, sp := range spans {
		// The network holds exactly the flits sent and not yet
		// delivered, each once.
		sort.Slice(sp, func(i, j int) bool { return sp[i][0] < sp[j][0] })
		next := int32(p.flitsDelivered)
		for _, s := range sp {
			if s[0] != next {
				return fmt.Errorf("packet %d: buffered flits %v, want %d through %d", p.id, sp, p.flitsDelivered, p.flitsSent-1)
			}
			next = s[1]
		}
		if next != p.flitsSent {
			return fmt.Errorf("packet %d: buffered flits %v, want %d through %d", p.id, sp, p.flitsDelivered, p.flitsSent-1)
		}
	}
	if e.flitsInjectedEver != e.flitsDeliveredEver+e.flitsDrainedEver+buffered {
		return fmt.Errorf("flit conservation: injected %d != delivered %d + drained %d + buffered %d",
			e.flitsInjectedEver, e.flitsDeliveredEver, e.flitsDrainedEver, buffered)
	}
	for i := range e.queues {
		q := &e.queues[i]
		for j := 0; j < q.len(); j++ {
			live[q.at(j)] = true
		}
	}
	for _, en := range e.recov.pending {
		live[en.p] = true
	}
	if len(live) != e.inFlight {
		return fmt.Errorf("packet conservation: %d distinct live packets, in-flight count %d",
			len(live), e.inFlight)
	}
	return nil
}

// wormDense reports whether packet p's worm, whose front flit is in
// input buffer front, holds one flit in each buffer from there back to
// its rear and nothing else in them.
func (e *Engine) wormDense(front int32, p *packet) bool {
	n := 0
	for x := front; ; {
		if e.bq[x].flits != 1 || e.frontPkt(x) != p {
			return false
		}
		if n++; x == p.rearAt {
			return n == int(p.flitsSent)-p.flitsDelivered
		}
		up := e.upOut[x]
		if up < 0 {
			return false
		}
		if x = e.busyBy[up]; x < 0 || e.meta[x].holder != p {
			return false
		}
	}
}

// checkInvariantsNow runs the checker and records the first violation
// in invariantErr, tagged with where in the run it was found.
func (e *Engine) checkInvariantsNow(when string) {
	if e.invariantErr != "" {
		return
	}
	if err := e.CheckInvariants(); err != nil {
		e.invariantErr = fmt.Sprintf("%s: %v", when, err)
	}
}
