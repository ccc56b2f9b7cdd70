// Command benchjson measures the repository's figure benchmarks (the
// single-load-point renditions of the Section 6 figures that
// bench_test.go runs) and writes the results as JSON, one record per
// figure and algorithm with ns/op and allocs/op, plus the screening and
// route-table compile micro-benchmarks. Each simulation entry also
// splits its cycle cost into the engine's generate, allocate and move
// phases, timed by a metrics collector on one extra run. The driver writes
// BENCH_<pr>.json files with it so successive changes have a recorded
// performance trajectory; benchjson itself compares each run against
// the most recent of those files and prints the deltas.
//
// Usage:
//
//	benchjson [-o BENCH_4.json] [-benchtime 2s] [-quick]
//	          [-baseline BENCH_3.json|none] [-only substring]
//	          [-max-allocs N] [-cpu N]
//
// With no -baseline, the highest-numbered BENCH_*.json in the current
// directory (other than the -o target) is used when one exists. Every
// entry records the gomaxprocs it ran under, and the delta table warns
// when a baseline entry was taken at a different setting instead of
// silently comparing incomparable numbers. -cpu sets GOMAXPROCS for
// the whole run; the report header records both it and the machine's
// NumCPU, so a reader can tell a multi-core measurement from one taken
// on a single-core box. Older BENCH files also carry per-entry shards
// and move_mode fields from a since-deleted sharded engine; they load
// as baselines all the same, and their sharded entries simply match no
// current benchmark name. -max-allocs turns the run into a regression gate: if any measured
// benchmark allocates more than N allocations per op, benchjson exits
// nonzero. CI runs one quick benchmark under a checked-in ceiling so a
// change that reintroduces per-header or per-message allocation fails
// the build.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"text/tabwriter"

	"turnmodel/internal/core"
	"turnmodel/internal/deadlock"
	"turnmodel/internal/exp"
	"turnmodel/internal/metrics"
	"turnmodel/internal/routing"
	"turnmodel/internal/sim"
	"turnmodel/internal/topology"
	"turnmodel/internal/traffic"
)

// freeSets2D is the deadlock-free count over the 256-set 2D design
// space, the screening benchmarks' self-check (see internal/explore).
const freeSets2D = 221

// figureBenches mirrors the Benchmark* figure entries in bench_test.go:
// one moderate load point per figure, every algorithm line.
var figureBenches = []struct {
	Name  string
	FigID string
	Load  float64
}{
	{"Fig13UniformMesh", "fig13", 1.25},
	{"Fig14TransposeMesh", "fig14", 1.75},
	{"Fig15TransposeCube", "fig15", 2.5},
	{"Fig16ReverseFlipCube", "fig16", 2.5},
}

// classBenches covers the engine's switching classes, one whole-
// simulation entry per class: single-VC wormhole, multi-VC dateline
// routing, and strict and chained store-and-forward.
var classBenches = []struct {
	Name string
	Cfg  func() sim.Config
}{
	{"ClassWormhole", func() sim.Config {
		t := topology.NewMesh(16, 16)
		return sim.Config{
			Algorithm:   routing.NewNegativeFirst(t),
			Pattern:     traffic.NewUniform(t),
			OfferedLoad: 1.25,
		}
	}},
	{"ClassMultiVC", func() sim.Config {
		t := topology.NewTorus(8, 2)
		return sim.Config{
			VCAlgorithm: routing.NewDatelineDOR(t),
			Pattern:     traffic.NewUniform(t),
			OfferedLoad: 1.5,
		}
	}},
	{"ClassStrictSAF", func() sim.Config {
		t := topology.NewMesh(16, 16)
		return sim.Config{
			Algorithm:     routing.NewNegativeFirst(t),
			Pattern:       traffic.NewUniform(t),
			OfferedLoad:   1.25,
			Switching:     sim.StoreAndForward,
			StrictAdvance: true,
			Lengths:       []int{6, 12},
		}
	}},
	{"ClassChainedSAF", func() sim.Config {
		t := topology.NewMesh(16, 16)
		return sim.Config{
			Algorithm:   routing.NewNegativeFirst(t),
			Pattern:     traffic.NewUniform(t),
			OfferedLoad: 1.25,
			Switching:   sim.StoreAndForward,
			Lengths:     []int{6, 12},
		}
	}},
}

type record struct {
	Name         string  `json:"name"`
	NsPerOp      int64   `json:"ns_per_op"`
	AllocsPerOp  int64   `json:"allocs_per_op"`
	BytesPerOp   int64   `json:"bytes_per_op"`
	Iterations   int     `json:"iterations"`
	AvgLatencyUs float64 `json:"latency_us"`
	Throughput   float64 `json:"tput_flits_per_us"`
	// GoMaxProcs records the execution environment per entry (older
	// baselines report zero; the delta table falls back to the
	// report-level gomaxprocs).
	GoMaxProcs int `json:"gomaxprocs,omitempty"`
	// GenerateNs, AllocateNs and MoveNs split a simulation entry's
	// cycle cost by engine phase: mean host nanoseconds per sampled
	// cycle, from one extra run with a metrics collector attached
	// (older baselines have none).
	GenerateNs float64 `json:"generate_ns_per_cycle,omitempty"`
	AllocateNs float64 `json:"allocate_ns_per_cycle,omitempty"`
	MoveNs     float64 `json:"move_ns_per_cycle,omitempty"`
}

type report struct {
	Schema     string `json:"schema"`
	GoMaxProcs int    `json:"gomaxprocs"`
	// NumCPU is the machine's logical CPU count, independent of the
	// gomaxprocs the run was paced at. A report with gomaxprocs > numcpu
	// was recorded oversubscribed; one with numcpu = 1 cannot show
	// multi-core speedup at all.
	NumCPU     int      `json:"numcpu,omitempty"`
	Benchmarks []record `json:"benchmarks"`
}

func main() {
	os.Exit(run())
}

func run() int {
	testing.Init() // registers -test.benchtime, which paces testing.Benchmark
	out := flag.String("o", "", "output file (default stdout)")
	benchtime := flag.String("benchtime", "2s", "run time per benchmark: duration or Nx iteration count")
	quick := flag.Bool("quick", false, "run each benchmark exactly twice instead of for -benchtime")
	baseline := flag.String("baseline", "", "previous BENCH_*.json to print deltas against; default: highest-numbered in cwd; 'none' disables")
	only := flag.String("only", "", "run only benchmarks whose name contains this substring")
	maxAllocs := flag.Int64("max-allocs", 0, "fail (exit 1) if any benchmark exceeds this many allocs/op (0 disables)")
	cpu := flag.Int("cpu", 0, "set GOMAXPROCS for the run (0 keeps the environment's value)")
	flag.Parse()
	if *cpu > 0 {
		runtime.GOMAXPROCS(*cpu)
	}
	if *quick {
		*benchtime = "2x"
	}
	if f := flag.Lookup("test.benchtime"); f != nil {
		if err := f.Value.Set(*benchtime); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson: bad -benchtime:", err)
			return 2
		}
	}

	rep := report{
		Schema:     "turnmodel-bench-v1: one op = one full simulation at the figure's load point",
		GoMaxProcs: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
	}
	ran := 0
	measure := func(name string, cfg sim.Config) error {
		if *only != "" && !strings.Contains(name, *only) {
			return nil
		}
		ran++
		var last sim.Result
		var simErr error
		bench := func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				cfg.Seed = int64(i + 1)
				r, err := sim.Run(cfg)
				if err != nil {
					simErr = err
					b.FailNow()
				}
				last = r
			}
		}
		fmt.Fprintf(os.Stderr, "benchjson: running %s...\n", name)
		res := testing.Benchmark(bench)
		if simErr != nil {
			return fmt.Errorf("%s: %w", name, simErr)
		}
		// The phase split comes from a separate run, so the collector
		// never weighs on the timed ones.
		col := metrics.New(metrics.Config{})
		cfg.Seed, cfg.Metrics = 1, col
		if _, err := sim.Run(cfg); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		phases := col.Summarize()
		rep.Benchmarks = append(rep.Benchmarks, record{
			Name:         name,
			NsPerOp:      res.NsPerOp(),
			AllocsPerOp:  res.AllocsPerOp(),
			BytesPerOp:   res.AllocedBytesPerOp(),
			Iterations:   res.N,
			AvgLatencyUs: last.AvgLatency,
			Throughput:   last.Throughput,
			GoMaxProcs:   rep.GoMaxProcs,
			GenerateNs:   phases.GenerateNs,
			AllocateNs:   phases.AllocateNs,
			MoveNs:       phases.MoveNs,
		})
		return nil
	}
	for _, fb := range figureBenches {
		f, ok := exp.FigureByID(fb.FigID)
		if !ok {
			fmt.Fprintf(os.Stderr, "benchjson: unknown figure %s\n", fb.FigID)
			return 1
		}
		// The cross-leaf compile cache: figures sharing a topology (the
		// two 8-cube figures) share its instance and one compiled route
		// table per relation, instead of recompiling per figure.
		t := exp.SharedTopology(f.Topology)
		pat := f.Pattern(t)
		for _, alg := range exp.SharedAlgorithms(t, f.Algs(t)) {
			cfg := sim.Config{
				Algorithm:     alg,
				Pattern:       pat,
				OfferedLoad:   fb.Load,
				WarmupCycles:  2000,
				MeasureCycles: 6000,
			}
			if err := measure(fb.Name+"/"+alg.Name(), cfg); err != nil {
				fmt.Fprintln(os.Stderr, "benchjson:", err)
				return 1
			}
		}
	}
	for _, cb := range classBenches {
		cfg := cb.Cfg()
		cfg.WarmupCycles = 2000
		cfg.MeasureCycles = 6000
		if err := measure(cb.Name, cfg); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			return 1
		}
	}
	// Screening micro-benchmarks: one op = screening the full 256-set 2D
	// design space on a 16x16 mesh, once by rebuilding the turn CDG per
	// set (the pre-explorer approach) and once with the incremental
	// checker walking the sets in Gray-code order (what cmd/turnscan
	// runs). Both verify the deadlock-free count so a wrong answer can
	// never masquerade as a fast one.
	measureRaw := func(name string, fn func(b *testing.B)) int64 {
		if *only != "" && !strings.Contains(name, *only) {
			return 0
		}
		ran++
		fmt.Fprintf(os.Stderr, "benchjson: running %s...\n", name)
		res := testing.Benchmark(fn)
		rep.Benchmarks = append(rep.Benchmarks, record{
			Name:        name,
			NsPerOp:     res.NsPerOp(),
			AllocsPerOp: res.AllocsPerOp(),
			BytesPerOp:  res.AllocedBytesPerOp(),
			Iterations:  res.N,
			GoMaxProcs:  rep.GoMaxProcs,
		})
		return res.NsPerOp()
	}
	screenTopo := topology.NewMesh(16, 16)
	rebuildNs := measureRaw("Screen2DRebuild", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			acyclic := 0
			for key := 0; key < core.NumSets2D; key++ {
				if deadlock.CheckTurnSet(screenTopo, core.SetFromKey2D(uint16(key))).DeadlockFree {
					acyclic++
				}
			}
			if acyclic != freeSets2D {
				b.Fatalf("rebuild screening found %d deadlock-free sets, want %d", acyclic, freeSets2D)
			}
		}
	})
	incNs := measureRaw("Screen2DIncremental", func(b *testing.B) {
		b.ReportAllocs()
		turns := core.AllTurns(2)
		for i := 0; i < b.N; i++ {
			ic := deadlock.NewIncrementalTurn(screenTopo, core.SetFromKey2D(0))
			acyclic := 0
			prev := uint16(0)
			for j := 0; j < core.NumSets2D; j++ {
				key := core.GrayKey2D(j)
				if j > 0 {
					bit := 0
					for (key^prev)>>uint(bit) != 1 {
						bit++
					}
					ic.SetAllowed(turns[bit], key&(1<<uint(bit)) == 0)
				}
				if ic.Acyclic() {
					acyclic++
				}
				prev = key
			}
			if acyclic != freeSets2D {
				b.Fatalf("incremental screening found %d deadlock-free sets, want %d", acyclic, freeSets2D)
			}
		}
	})
	if rebuildNs > 0 && incNs > 0 {
		fmt.Fprintf(os.Stderr, "benchjson: screening speedup: incremental is %.1fx faster than rebuild-per-set\n",
			float64(rebuildNs)/float64(incNs))
	}
	// Route-table compile micro-benchmarks (layer L0): one op = one
	// routing.Compile of a figure relation on its figure's topology, the
	// set-up every cold sweep, turnsim run and turnserver start pays.
	for _, alg := range []routing.VCAlgorithm{
		routing.AsVC(routing.NewWestFirst(topology.NewMesh(16, 16))),
		routing.AsVC(routing.NewPCube(topology.NewHypercube(8))),
	} {
		measureRaw("Compile/"+alg.Name(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := routing.Compile(alg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "benchjson: no benchmark matches -only %q\n", *only)
		return 2
	}

	base, err := loadBaseline(*baseline, *out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson: baseline:", err)
		return 2
	}
	if base != nil {
		printDeltas(os.Stderr, base, &rep)
	}

	exceeded := false
	if *maxAllocs > 0 {
		for _, r := range rep.Benchmarks {
			if r.AllocsPerOp > *maxAllocs {
				fmt.Fprintf(os.Stderr, "benchjson: %s allocates %d allocs/op, over the -max-allocs ceiling %d\n",
					r.Name, r.AllocsPerOp, *maxAllocs)
				exceeded = true
			}
		}
	}

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		return 1
	}
	data = append(data, '\n')
	if *out == "" {
		os.Stdout.Write(data)
	} else if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		return 1
	}
	if exceeded {
		return 1
	}
	return 0
}

var benchFileRe = regexp.MustCompile(`^BENCH_(\d+)\.json$`)

// loadBaseline resolves and parses the comparison report. No baseline
// at all — "none", or no BENCH_*.json to auto-pick — returns (nil,
// nil); but a baseline that was named (explicitly or by the automatic
// highest-numbered pick, excluding the file this run writes) and then
// fails to read or parse is an error, not a silent skip: deltas the
// caller asked for would otherwise just vanish from the output.
func loadBaseline(path, out string) (*report, error) {
	if path == "none" {
		return nil, nil
	}
	if path == "" {
		best := -1
		matches, _ := filepath.Glob("BENCH_*.json")
		for _, m := range matches {
			sub := benchFileRe.FindStringSubmatch(filepath.Base(m))
			if sub == nil || (out != "" && filepath.Base(m) == filepath.Base(out)) {
				continue
			}
			if n, err := strconv.Atoi(sub[1]); err == nil && n > best {
				best, path = n, m
			}
		}
		if best < 0 {
			return nil, nil
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	fmt.Fprintf(os.Stderr, "benchjson: deltas vs %s\n", path)
	return &rep, nil
}

// effGoMaxProcs resolves a record's gomaxprocs, falling back to the
// report-level value for baselines written before the per-entry field
// existed.
func effGoMaxProcs(r record, rep *report) int {
	if r.GoMaxProcs > 0 {
		return r.GoMaxProcs
	}
	return rep.GoMaxProcs
}

// printDeltas renders an old->new comparison table for every benchmark
// present in both reports. Entries measured at a different gomaxprocs
// are flagged with a warning instead of being silently compared: ns/op
// across different parallelism settings measures the machine, not the
// change.
func printDeltas(w *os.File, base, cur *report) {
	old := map[string]record{}
	for _, r := range base.Benchmarks {
		old[r.Name] = r
	}
	for _, r := range cur.Benchmarks {
		o, ok := old[r.Name]
		if !ok {
			continue
		}
		if bg, cg := effGoMaxProcs(o, base), effGoMaxProcs(r, cur); bg != cg {
			fmt.Fprintf(w, "benchjson: WARNING: %s: baseline measured at gomaxprocs=%d, this run at gomaxprocs=%d; deltas compare machines, not changes\n",
				r.Name, bg, cg)
		}
	}
	tw := tabwriter.NewWriter(w, 2, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "benchmark\tns/op\tallocs/op\tbytes/op")
	for _, r := range cur.Benchmarks {
		o, ok := old[r.Name]
		if !ok {
			fmt.Fprintf(tw, "%s\t%d (new)\t%d (new)\t%d (new)\n", r.Name, r.NsPerOp, r.AllocsPerOp, r.BytesPerOp)
			continue
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\n", r.Name,
			delta(o.NsPerOp, r.NsPerOp), delta(o.AllocsPerOp, r.AllocsPerOp), delta(o.BytesPerOp, r.BytesPerOp))
	}
	tw.Flush()
}

func delta(old, new int64) string {
	if old == 0 {
		return fmt.Sprintf("%d -> %d", old, new)
	}
	return fmt.Sprintf("%d -> %d (%+.1f%%)", old, new, 100*float64(new-old)/float64(old))
}
