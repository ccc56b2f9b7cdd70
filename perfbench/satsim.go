package main

import (
	"fmt"

	"turnmodel/internal/metrics"
	"turnmodel/internal/routing"
	"turnmodel/internal/sim"
	"turnmodel/internal/topology"
	"turnmodel/internal/traffic"
)

// satLoad and the window below put west-first on a 16x16 mesh under
// matrix-transpose traffic well past saturation (Figure 14's regime).
const (
	satLoad    = 1.75
	satWarmup  = 2000
	satMeasure = 40000
)

// runSaturatedSim times one serial sim.Run of a saturated network: the
// engine's hot path with no sweep batching or service in front of it.
// Every repetition reruns the same seeded configuration, so every
// repetition must return the identical result.
func runSaturatedSim(b *bench) error {
	b.wallName = "sim_s"
	t := topology.NewMesh(16, 16)
	alg := routing.NewWestFirst(t)
	var tab *routing.Table
	compile, _ := timed(func() error {
		tab = routing.TableFor(routing.AsVC(alg))
		return nil
	})
	if tab == nil {
		return fmt.Errorf("%s has no route table", alg.Name())
	}
	cfg := sim.Config{
		Algorithm:     alg,
		Pattern:       traffic.NewMeshTranspose(t),
		OfferedLoad:   satLoad,
		WarmupCycles:  satWarmup,
		MeasureCycles: satMeasure,
		Seed:          b.seed,
	}
	if b.setupDone() {
		return nil
	}
	compiles := routing.CompileCount()
	var first sim.Result
	var times, traced []float64
	var allocs uint64
	var summary metrics.Summary
	minReps := 3
	if b.trace {
		minReps = 2
	}
	err := b.repeat(minReps, func(i int) error {
		var r sim.Result
		run, err := timed(func() (err error) {
			r, err = sim.Run(cfg)
			return err
		})
		if err == nil {
			err = checkRun(r)
		}
		if err == nil && i > 0 && !sameResult(r, first) {
			err = fmt.Errorf("repetition %d: result differs from repetition 0 on the same seed", i)
		}
		b.op(err)
		if err != nil {
			return err
		}
		if i == 0 {
			first = r
			b.setDigest([]byte(resultBytes(r)))
			allocs = run.mallocs
		}
		b.addTimed(run)
		times = append(times, ms(run.wall))
		if !b.trace {
			return nil
		}
		// The traced repetition attaches the metrics collector and an
		// observer counting deliveries; neither may change the result.
		col := metrics.New(metrics.Config{Interval: metricsInterval})
		var delivered int64
		tcfg := cfg
		tcfg.Metrics = col
		tcfg.Observer = sim.ObserverFuncs{DeliverFn: func(int64, topology.NodeID, topology.NodeID, int64, int) { delivered++ }}
		var tr sim.Result
		trun, err := timed(func() (err error) {
			tr, err = sim.Run(tcfg)
			return err
		})
		if err != nil {
			return err
		}
		if !sameResult(tr, r) {
			b.fail("traced sim.Run result differs from untraced")
		}
		if delivered != r.PacketsDeliveredTotal {
			b.fail("observer counted %d deliveries, result reports %d", delivered, r.PacketsDeliveredTotal)
		}
		summary = col.Summarize()
		traced = append(traced, ms(trun.wall))
		return nil
	})
	if err != nil {
		return err
	}
	if b.trace {
		b.setLayer("routing.compile_ms", ms(compile.wall))
		b.setLayer("routing.table_mb", float64(tab.MemoryBytes())/(1<<20))
		b.setLayer("routing.compiles_in_run", float64(routing.CompileCount()-compiles))
		setSimLayer(b, summary, median(times))
		b.setLayer("sim.allocs_per_run", float64(allocs))
		b.setLayer("sim.run_p50_ms", median(times))
		b.setLayer("sim.run_max_ms", percentile(times, 100))
		b.setLayer("bench.trace_overhead_ratio", median(traced)/median(times))
	}
	return nil
}

// setSimLayer records the engine's modelled counts from a collector
// summary and the host time per forwarded flit.
func setSimLayer(b *bench, s metrics.Summary, runMs float64) {
	b.setLayer("sim.ns_per_flit_hop", runMs*1e6/float64(s.FlitsForwarded))
	b.setLayer("sim.flit_hops", float64(s.FlitsForwarded))
	b.setLayer("sim.grants", float64(s.Grants))
	b.setLayer("sim.denials", float64(s.Denials))
	b.setLayer("sim.grant_ratio", float64(s.Grants)/float64(s.Grants+s.Denials))
	b.setLayer("sim.wait_cycles", float64(s.WaitCycles))
	b.setLayer("sim.mean_occupancy", s.MeanOccupancy)
}
