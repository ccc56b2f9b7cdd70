package main

import (
	"bytes"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"turnmodel/internal/exp"
	"turnmodel/internal/metrics"
	"turnmodel/internal/routing"
	"turnmodel/internal/sim"
)

// quickWarmup and quickMeasure are exp's Quick-mode simulation window,
// which the traced run's direct leaf re-runs repeat (the equality check
// against exp's own results catches any drift).
const quickWarmup, quickMeasure = 2000, 8000

// metricsInterval is the collectors' sampling cadence in traced runs.
const metricsInterval = 1000

// runFigsweep is the paper's Section 6 study as cmd/experiments runs it:
// Figure 13 (16x16 mesh, uniform) and Figure 16 (8-cube, reverse-flip)
// in Quick mode through exp.PrefetchFigures, with one worker per CPU.
// Every repetition uses a seed of its own, so it starts with no entry
// in exp's process-wide sweep cache.
func runFigsweep(b *bench) error {
	b.wallName = "sweep_s"
	figs := []exp.FigureSpec{figure("fig13"), figure("fig16")}
	compileMs, tableBytes, err := compileFigures(figs)
	if err != nil {
		return err
	}
	if b.setupDone() {
		return nil
	}
	workers := runtime.NumCPU()
	compiles := routing.CompileCount()
	var untraced, traced []float64
	minReps := 2
	if b.trace {
		minReps = 1 // a traced repetition also runs the traced sweep and the direct leaf re-runs
	}
	err = b.repeat(minReps, func(i int) error {
		o := exp.Options{Quick: true, Seed: repSeed(b.seed, i), Workers: workers}
		m, err := timed(func() error { return exp.PrefetchFigures(o, figs...) })
		b.op(err)
		if err != nil {
			return err
		}
		b.addTimed(m)
		untraced = append(untraced, m.wall.Seconds())
		sweeps, out, err := figureOutputs(figs, o)
		if err != nil {
			return err
		}
		if i == 0 {
			b.setDigest(out...)
		}
		if !b.trace {
			return nil
		}
		wall, err := traceFigsweep(b, figs, o, sweeps, m.wall, i == 0)
		traced = append(traced, wall.Seconds())
		return err
	})
	if err != nil {
		return err
	}
	if b.trace {
		b.setLayer("routing.compile_ms", compileMs)
		b.setLayer("routing.table_mb", tableBytes/(1<<20))
		b.setLayer("routing.compiles_in_run", float64(routing.CompileCount()-compiles))
		b.setLayer("bench.trace_overhead_ratio", median(traced)/median(untraced))
	}
	return nil
}

// figure looks up a figure the benchmark is built around.
func figure(id string) exp.FigureSpec {
	f, ok := exp.FigureByID(id)
	if !ok {
		panic("perfbench: unknown figure " + id)
	}
	return f
}

// repSeed gives repetition i of a run its own seed, distinct across
// repetitions and across run seeds.
func repSeed(seed int64, i int) int64 { return seed*1000 + int64(i) }

// compileFigures builds the figures' shared topologies and relations
// and compiles their route tables, as the sweep would on first use. It
// returns the summed compile time (ms) and table size (bytes).
func compileFigures(figs []exp.FigureSpec) (ms, tableBytes float64, err error) {
	for _, f := range figs {
		t := exp.SharedTopology(f.Topology)
		for _, alg := range exp.SharedAlgorithms(t, f.Algs(t)) {
			t0 := time.Now()
			tab := routing.TableFor(routing.AsVC(alg))
			ms += float64(time.Since(t0).Nanoseconds()) / 1e6
			if tab == nil {
				return 0, 0, fmt.Errorf("%s: %s has no route table", f.ID, alg.Name())
			}
			tableBytes += float64(tab.MemoryBytes())
		}
	}
	return ms, tableBytes, nil
}

// figureOutputs fetches the figures' sweeps from exp's cache, checks
// every leaf result, and renders each figure with exp.WriteFigureJSON.
func figureOutputs(figs []exp.FigureSpec, o exp.Options) ([][]exp.Sweep, [][]byte, error) {
	var all [][]exp.Sweep
	var out [][]byte
	for _, f := range figs {
		sweeps, err := exp.RunFigure(f, o)
		if err != nil {
			return nil, nil, err
		}
		for _, s := range sweeps {
			for _, p := range s.Points {
				if err := checkRun(p.Result); err != nil {
					return nil, nil, fmt.Errorf("%s %s load %g: %w", f.ID, s.Algorithm, p.Offered, err)
				}
			}
		}
		var buf bytes.Buffer
		if err := exp.WriteFigureJSON(&buf, f, sweeps); err != nil {
			return nil, nil, err
		}
		all = append(all, sweeps)
		out = append(out, buf.Bytes())
	}
	return all, out, nil
}

// checkRun applies the per-simulation gate: a complete run, packet
// conservation, and no deadlock (every relation the benchmark
// simulates is deadlock free).
func checkRun(r sim.Result) error {
	switch {
	case r.Stopped:
		return fmt.Errorf("run stopped early")
	case r.Deadlocked:
		return fmt.Errorf("deadlock at cycle %d under a deadlock-free relation", r.DeadlockCycle)
	case r.PacketsGeneratedTotal != r.PacketsDeliveredTotal+r.PacketsDropped+r.PacketsInFlight:
		return fmt.Errorf("packet conservation: generated %d != delivered %d + dropped %d + in flight %d",
			r.PacketsGeneratedTotal, r.PacketsDeliveredTotal, r.PacketsDropped, r.PacketsInFlight)
	}
	return nil
}

// sameResult reports whether two runs produced identical results.
func sameResult(a, b sim.Result) bool { return resultBytes(a) == resultBytes(b) }

// resultBytes renders every field of a result (%#v, so Result.String's
// summary does not stand in for the fields, and NaN fields compare
// equal).
func resultBytes(r sim.Result) string { return fmt.Sprintf("%#v", r) }

// traceFigsweep is the traced half of a figsweep repetition: the same
// sweep again with metrics collectors (Options.MetricsInterval) and
// per-leaf progress timestamps (Options.OnProgress), which must give
// the untraced results. On the first repetition it also re-runs every
// leaf directly through sim.Run on the same number of workers, to time
// each leaf. It returns the traced sweep's wall time.
func traceFigsweep(b *bench, figs []exp.FigureSpec, o exp.Options, want [][]exp.Sweep, untracedWall time.Duration, leaves bool) (time.Duration, error) {
	to := o
	to.MetricsInterval = metricsInterval
	var mu sync.Mutex
	var done []time.Time
	to.OnProgress = func(exp.ProgressEvent) {
		now := time.Now()
		mu.Lock()
		done = append(done, now)
		mu.Unlock()
	}
	t0 := time.Now()
	if err := exp.PrefetchFigures(to, figs...); err != nil {
		return 0, err
	}
	wall := time.Since(t0)
	got, _, err := figureOutputs(figs, to)
	if err != nil {
		return 0, err
	}
	var total metrics.Summary
	var occ []float64
	for fi := range figs {
		for si, s := range got[fi] {
			for pi, p := range s.Points {
				if !sameResult(p.Result, want[fi][si].Points[pi].Result) {
					b.fail("%s %s load %g: traced result differs from untraced", figs[fi].ID, s.Algorithm, p.Offered)
				}
				if p.Metrics == nil {
					return 0, fmt.Errorf("%s %s load %g: no metrics summary", figs[fi].ID, s.Algorithm, p.Offered)
				}
				total.FlitsForwarded += p.Metrics.FlitsForwarded
				total.Grants += p.Metrics.Grants
				total.Denials += p.Metrics.Denials
				total.WaitCycles += p.Metrics.WaitCycles
				occ = append(occ, p.Metrics.MeanOccupancy)
			}
		}
	}
	sort.Slice(done, func(i, j int) bool { return done[i].Before(done[j]) })
	workers := o.Workers
	if n := len(done); n >= workers {
		b.setLayer("exp.tail_ms", ms(done[n-1].Sub(done[n-workers])))
	}
	if !leaves {
		return wall, nil
	}
	times, allocs := rerunLeaves(b, figs, o, want)
	busy := sum(times)
	total.MeanOccupancy = sum(occ) / float64(len(occ))
	setSimLayer(b, total, busy)
	b.setLayer("sim.allocs_per_run", allocs)
	b.setLayer("sim.run_p50_ms", median(times))
	b.setLayer("sim.run_max_ms", percentile(times, 100))
	b.setLayer("exp.busy_ratio", busy/(float64(workers)*ms(untracedWall)))
	return wall, nil
}

// rerunLeaves re-runs every leaf of the sweeps in want directly through
// sim.Run, on o.Workers goroutines, and checks each result against
// exp's. It returns the per-leaf times (ms) and heap allocations per
// leaf.
func rerunLeaves(b *bench, figs []exp.FigureSpec, o exp.Options, want [][]exp.Sweep) ([]float64, float64) {
	type leaf struct {
		cfg  sim.Config
		want sim.Result
		name string
	}
	var todo []leaf
	for fi, f := range figs {
		t := exp.SharedTopology(f.Topology)
		pat := f.Pattern(t)
		algs := exp.SharedAlgorithms(t, f.Algs(t))
		for si, s := range want[fi] {
			for _, p := range s.Points {
				todo = append(todo, leaf{
					cfg: sim.Config{
						Algorithm: algs[si], Pattern: pat, OfferedLoad: p.Offered,
						WarmupCycles: quickWarmup, MeasureCycles: quickMeasure,
						Seed: o.Seed + int64(p.Offered*1000),
					},
					want: p.Result,
					name: fmt.Sprintf("%s %s load %g", f.ID, s.Algorithm, p.Offered),
				})
			}
		}
	}
	times := make([]float64, len(todo))
	results := make([]sim.Result, len(todo))
	errs := make([]error, len(todo))
	next := make(chan int)
	var wg sync.WaitGroup
	m, _ := timed(func() error {
		for w := 0; w < o.Workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range next {
					t0 := time.Now()
					results[i], errs[i] = sim.Run(todo[i].cfg)
					times[i] = ms(time.Since(t0))
				}
			}()
		}
		for i := range todo {
			next <- i
		}
		close(next)
		wg.Wait()
		return nil
	})
	for i, l := range todo {
		switch {
		case errs[i] != nil:
			b.fail("%s: %v", l.name, errs[i])
		case !sameResult(results[i], l.want):
			b.fail("%s: direct sim.Run differs from exp's result", l.name)
		}
	}
	return times, float64(m.mallocs) / float64(len(todo))
}

// ms converts a duration to milliseconds.
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
