package main

import (
	"fmt"
	"math/rand"
	"time"

	"turnmodel/internal/core"
	"turnmodel/internal/deadlock"
	"turnmodel/internal/explore"
	"turnmodel/internal/routing"
	"turnmodel/internal/topology"
)

// wantCounts is the 2D design space on any mesh: 256 turn sets in 43
// symmetry classes, 221 deadlock-free sets in 36 classes, 9 of which
// are connected under their minimal relation.
var wantCounts = explore.Counts{Sets: 256, Classes: 43, FreeSets: 221, FreeClasses: 36, Survivors: 9}

// screenOutput is the checked, digested output of one screening.
type screenOutput struct {
	Counts   explore.Counts
	Verdicts []verdict
}

// verdict is one survivor's deadlock check.
type verdict struct {
	Canon           uint16
	Name            string
	DeadlockFree    bool
	Channels, Edges int
}

// runDesignSpace is the turnscan -screen-only / turncheck flow on a
// 16x16 mesh: explore.Screen over all 256 turn sets, then deadlock.Check
// on each survivor's minimal turn-graph relation. The inputs do not
// depend on the seed; it only orders the survivor checks.
func runDesignSpace(b *bench) error {
	b.wallName = "screen_s"
	t := topology.NewMesh(16, 16)
	if b.setupDone() {
		return nil
	}
	compiles := routing.CompileCount()
	rng := rand.New(rand.NewSource(b.seed))
	var untraced, traced, screenMs, checkMs []float64
	var first []byte
	var counts explore.Counts
	minReps := 3
	if b.trace {
		minReps = 2
	}
	err := b.repeat(minReps, func(i int) error {
		var out screenOutput
		m, err := timed(func() (err error) {
			out, err = screenAndCheck(t, rng, nil)
			return err
		})
		b.op(err)
		if err != nil {
			return err
		}
		b.addTimed(m)
		untraced = append(untraced, m.wall.Seconds())
		digest := jsonBytes(out)
		if i == 0 {
			first, counts = digest, out.Counts
			b.setDigest(digest)
		} else if string(digest) != string(first) {
			return fmt.Errorf("repetition %d: screening output differs from repetition 0", i)
		}
		if !b.trace {
			return nil
		}
		var split [2]time.Duration
		t0 := time.Now()
		tout, err := screenAndCheck(t, rng, &split)
		if err != nil {
			return err
		}
		traced = append(traced, time.Since(t0).Seconds())
		if string(jsonBytes(tout)) != string(first) {
			b.fail("traced screening output differs from untraced")
		}
		screenMs = append(screenMs, ms(split[0]))
		checkMs = append(checkMs, ms(split[1]))
		return nil
	})
	if err != nil {
		return err
	}
	if b.trace {
		b.setLayer("routing.compiles_in_run", float64(routing.CompileCount()-compiles))
		b.setLayer("explore.screen_ms", median(screenMs))
		b.setLayer("deadlock.check_ms", median(checkMs))
		b.setLayer("explore.free_sets", float64(counts.FreeSets))
		b.setLayer("explore.survivors", float64(counts.Survivors))
		b.setLayer("bench.trace_overhead_ratio", median(traced)/median(untraced))
	}
	return nil
}

// screenAndCheck screens t, checks each survivor (in an order drawn
// from rng) and verifies the design-space counts and that every
// survivor is deadlock free. With split non-nil it also times the two
// steps: split[0] is explore.Screen, split[1] the deadlock checks.
func screenAndCheck(t *topology.Topology, rng *rand.Rand, split *[2]time.Duration) (screenOutput, error) {
	t0 := time.Now()
	s := explore.Screen(t)
	t1 := time.Now()
	out := screenOutput{Counts: s.Counts()}
	if out.Counts != wantCounts {
		return out, fmt.Errorf("screening counts %+v, want %+v", out.Counts, wantCounts)
	}
	survivors := s.Survivors()
	out.Verdicts = make([]verdict, len(survivors))
	for _, i := range rng.Perm(len(survivors)) {
		c := survivors[i]
		r := deadlock.Check(routing.NewTurnGraphRouting(t, core.SetFromKey2D(c.Canon), true))
		if !r.DeadlockFree {
			return out, fmt.Errorf("survivor %#x (%s) has a dependency cycle", c.Canon, c.Name)
		}
		out.Verdicts[i] = verdict{c.Canon, c.Name, r.DeadlockFree, r.Channels, r.Edges}
	}
	if split != nil {
		split[0], split[1] = t1.Sub(t0), time.Since(t1)
	}
	return out, nil
}
