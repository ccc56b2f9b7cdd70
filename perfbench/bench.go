package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"time"
)

// metricDef names one reported metric and its unit. The two lists
// below are the benchmark's contract with BENCHMARK.json (a test keeps
// them equal).
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run, reported by every
// workload. wall_s is the workload's own headline time: sweep_s for
// figsweep, sim_s for saturated-sim, screen_s for design-space and one
// closed-loop pass of the job mix for serve-mix.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"alloc_mb", "MB"},
}

// perLayer are the metrics of a traced run, grouped by package. A
// workload that does not exercise a layer reports 0 for its metrics.
var perLayer = []metricDef{
	{"routing.compile_ms", "ms"},
	{"routing.table_mb", "MB"},
	{"routing.compiles_in_run", "count"},
	{"sim.ns_per_flit_hop", "ns"},
	{"sim.flit_hops", "count"},
	{"sim.grants", "count"},
	{"sim.denials", "count"},
	{"sim.grant_ratio", "ratio"},
	{"sim.wait_cycles", "cycles"},
	{"sim.mean_occupancy", "flits"},
	{"sim.allocs_per_run", "count"},
	{"sim.run_p50_ms", "ms"},
	{"sim.run_max_ms", "ms"},
	{"exp.busy_ratio", "ratio"},
	{"exp.tail_ms", "ms"},
	{"serve.jobs_per_s", "1/s"},
	{"serve.job_p50_ms", "ms"},
	{"serve.job_p95_ms", "ms"},
	{"serve.repeat_p50_ms", "ms"},
	{"serve.repeat_p95_ms", "ms"},
	{"serve.fail_ratio", "ratio"},
	{"serve.submit_ms", "ms"},
	{"serve.queue_wait_ms", "ms"},
	{"serve.run_ms", "ms"},
	{"serve.deliver_ms", "ms"},
	{"serve.result_ms", "ms"},
	{"serve.replay_ms", "ms"},
	{"serve.deduped", "count"},
	{"serve.leaves_run", "count"},
	{"serve.rejected", "count"},
	{"serve.cache_hits", "count"},
	{"serve.journal_bytes_per_job", "B"},
	{"explore.screen_ms", "ms"},
	{"deadlock.check_ms", "ms"},
	{"explore.free_sets", "count"},
	{"explore.survivors", "count"},
	{"bench.trace_overhead_ratio", "ratio"},
}

// bench is one run's state: its parameters, the samples and per-layer
// values the workload records, and the outcome of its checks.
type bench struct {
	workload  string
	seed      int64
	seconds   time.Duration
	trace     bool
	setupOnly bool
	env       env

	wallName string // the workload's own name for wall_s, e.g. sweep_s
	series   map[string]*series
	order    []string
	layer    map[string]float64

	attempted, failed int
	failures          []string
	digest            string
}

// series is the samples of one metric.
type series struct {
	unit   string
	values []float64
}

// setupDone ends the set-up phase and reports whether the run should
// stop here: a -setup-only child tells its parent, which times it, and
// then only cleans up.
func (b *bench) setupDone() bool {
	if b.setupOnly {
		fmt.Print(setupDoneLine)
	}
	return b.setupOnly
}

// add appends samples to a metric's series.
func (b *bench) add(name, unit string, v ...float64) {
	if b.series == nil {
		b.series = map[string]*series{}
	}
	s, ok := b.series[name]
	if !ok {
		s = &series{unit: unit}
		b.series[name] = s
		b.order = append(b.order, name)
	}
	s.values = append(s.values, v...)
}

// setLayer records a per-layer metric of a traced run.
func (b *bench) setLayer(name string, v float64) {
	if b.layer == nil {
		b.layer = map[string]float64{}
	}
	b.layer[name] = v
}

// op counts one attempted operation, failing the run if err is set.
func (b *bench) op(err error) {
	b.attempted++
	if err != nil {
		b.failed++
		b.fail("%v", err)
	}
}

// fail records a correctness failure: the run reports correct=false
// and exits nonzero.
func (b *bench) fail(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	fmt.Fprintf(os.Stderr, "perfbench: FAIL: %s\n", msg)
	b.failures = append(b.failures, msg)
}

// repeat calls rep for i = 0, 1, ... while a further repetition, as
// long as the last one, still ends within the run's measurement time,
// and at least minReps times. A full GC before each repetition keeps
// one repetition's garbage out of the next one's timing.
func (b *bench) repeat(minReps int, rep func(i int) error) error {
	start := time.Now()
	var last time.Duration
	for i := 0; i < minReps || time.Since(start)+last <= b.seconds; i++ {
		runtime.GC()
		t0 := time.Now()
		if err := rep(i); err != nil {
			return err
		}
		last = time.Since(t0)
	}
	return nil
}

// measured is the cost of one timed call.
type measured struct {
	wall    time.Duration
	bytes   uint64 // heap bytes allocated
	mallocs uint64 // heap objects allocated
}

// timed runs f and measures its wall time and heap allocation.
func timed(f func() error) (measured, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	err := f()
	wall := time.Since(t0)
	runtime.ReadMemStats(&after)
	return measured{wall, after.TotalAlloc - before.TotalAlloc, after.Mallocs - before.Mallocs}, err
}

// addTimed records a timed repetition as wall_s and alloc_mb samples.
func (b *bench) addTimed(m measured) {
	b.add("wall_s", "s", m.wall.Seconds())
	b.add("alloc_mb", "MB", float64(m.bytes)/(1<<20))
}

// setDigest records the digest of the run's checked output.
func (b *bench) setDigest(parts ...[]byte) {
	h := sha256.New()
	for _, p := range parts {
		h.Write(p)
	}
	b.digest = hex.EncodeToString(h.Sum(nil))
}

//go:embed digests.json
var digestsJSON []byte

// checkDigest compares the output digest with the one recorded for the
// default seed. Each workload digests the output of its first
// repetition, whose inputs depend only on the seed.
func (b *bench) checkDigest() {
	if b.digest == "" {
		b.fail("%s produced no output digest", b.workload)
		return
	}
	if b.seed != defaultSeed {
		return
	}
	var want map[string]string
	if err := json.Unmarshal(digestsJSON, &want); err != nil {
		b.fail("digests.json: %v", err)
		return
	}
	if want[b.workload] != b.digest {
		b.fail("%s output digest %s, recorded %s", b.workload, b.digest, want[b.workload])
	}
}

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a run's standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// result assembles the run's JSON line: the medians of the end-to-end
// series, or the per-layer values of a traced run.
func (b *bench) result() result {
	r := result{Attempted: b.attempted, Failed: b.failed, Metrics: map[string]metricValue{}}
	if b.trace {
		for _, d := range perLayer {
			r.Metrics[d.name] = metricValue{b.layer[d.name], d.unit}
		}
	} else {
		for _, d := range endToEnd {
			s, ok := b.series[d.name]
			if !ok || len(s.values) == 0 {
				b.fail("metric %s was not measured", d.name)
				continue
			}
			r.Metrics[d.name] = metricValue{median(s.values), d.unit}
		}
	}
	for name, m := range r.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			b.fail("metric %s is %v", name, m.Value)
			r.Metrics[name] = metricValue{0, m.Unit}
		}
	}
	if r.Attempted == 0 {
		b.fail("no operation was attempted")
	}
	r.Correct = len(b.failures) == 0
	return r
}

// printReport writes the human-readable summary that precedes the JSON
// line: the environment, every series with its median, sample count and
// highest reportable percentile, the per-layer values and the digest.
func (b *bench) printReport(w io.Writer) {
	e, _ := json.Marshal(b.env)
	fmt.Fprintf(w, "env %s\n", e)
	for _, name := range b.order {
		s := b.series[name]
		label := name
		if name == "wall_s" && b.wallName != "" {
			label += " (" + b.wallName + ")"
		}
		fmt.Fprintf(w, "%-28s %12.6g %-5s n=%d", label, median(s.values), s.unit, len(s.values))
		if p, ok := highestPercentile(len(s.values)); ok && p > 50 {
			fmt.Fprintf(w, "  p%g=%.6g", p, percentile(s.values, p))
		}
		if len(s.values) >= 2 {
			q1, _, q3 := quartiles(s.values)
			fmt.Fprintf(w, "  iqr/median=%.3f", (q3-q1)/median(s.values))
		}
		fmt.Fprintln(w)
	}
	if b.trace {
		for _, d := range perLayer {
			fmt.Fprintf(w, "%-28s %12.6g %s\n", d.name, b.layer[d.name], d.unit)
		}
	}
	fmt.Fprintf(w, "digest %s\n", b.digest)
}

// resultSet is the file -out writes and -baseline reads.
type resultSet struct {
	Env     env                  `json:"env"`
	Result  result               `json:"result"`
	Samples map[string][]float64 `json:"samples"`
	Units   map[string]string    `json:"units"`
}

// writeResultSet stores the run's environment, result and samples.
func (b *bench) writeResultSet(path string, r result) error {
	rs := resultSet{Env: b.env, Result: r, Samples: map[string][]float64{}, Units: map[string]string{}}
	for name, s := range b.series {
		rs.Samples[name] = s.values
		rs.Units[name] = s.unit
	}
	data, err := json.MarshalIndent(rs, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// compareBaseline prints each metric's change against a stored result
// set, after a warning for every environment value that differs: such
// a comparison measures the difference in machines or inputs as well
// as in code.
func compareBaseline(w io.Writer, path string, e env, cur result) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("read baseline: %w", err)
	}
	var base resultSet
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("parse baseline %s: %w", path, err)
	}
	fmt.Fprintf(w, "baseline commit %s, this run %s\n", base.Env.Commit, e.Commit)
	for _, d := range envDiffs(base.Env, e) {
		fmt.Fprintf(w, "WARNING: baseline %s differs: %s\n", path, d)
	}
	names := make([]string, 0, len(cur.Metrics))
	for name := range cur.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		old, ok := base.Result.Metrics[name]
		if !ok {
			continue
		}
		now := cur.Metrics[name]
		delta := "n/a"
		if old.Value != 0 {
			delta = fmt.Sprintf("%+.1f%%", 100*(now.Value-old.Value)/old.Value)
		}
		fmt.Fprintf(w, "vs-baseline %-28s %12.6g -> %12.6g %s (%s)\n", name, old.Value, now.Value, now.Unit, delta)
	}
	return nil
}

// envDiffs lists the environment fields, other than the commit, that
// differ between two result sets.
func envDiffs(a, b env) []string {
	var out []string
	diff := func(name string, x, y any) {
		if x != y {
			out = append(out, fmt.Sprintf("%s %v vs %v", name, x, y))
		}
	}
	diff("workload", a.Workload, b.Workload)
	diff("trace", a.Trace, b.Trace)
	diff("seed", a.Seed, b.Seed)
	diff("go_version", a.GoVersion, b.GoVersion)
	diff("cpu_model", a.CPUModel, b.CPUModel)
	diff("numcpu", a.NumCPU, b.NumCPU)
	diff("gomaxprocs", a.GOMAXPROCS, b.GOMAXPROCS)
	return out
}

// jsonBytes marshals v for digesting; the values digested are plain
// data, so marshalling cannot fail.
func jsonBytes(v any) []byte {
	data, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("perfbench: digest input not serializable: %v", err))
	}
	return data
}
