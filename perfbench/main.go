// Command perfbench is the repository benchmark: it runs one named
// workload against the turn-model packages from outside, checks the
// outputs, and prints every metric by name as the last line of its
// standard output, as one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Run it from the repository root (perfbench/run.sh builds it):
//
//	bash perfbench/run.sh --workload figsweep --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones (setup_s, wall_s,
// alloc_mb), measured with no collectors attached. With --trace 1 a
// separate run reports the per-layer metrics, timed around calls into
// each package's public functions. README.md in this directory gives
// the workloads, the metrics and which layer moves which number.
package main

import (
	"bufio"
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Set-up caches (route tables, interned topologies) are process-global,
// so only a fresh process pays the full set-up again: setup_s is the
// median over fresh -setup-only processes, run one after another. A run
// samples at least setupMinSamples of them and keeps sampling, up to
// setupMaxSamples, until setupMinTime has passed, so a set-up of a few
// milliseconds still gets a steady median.
const (
	setupMinSamples = 5
	setupMaxSamples = 51
	setupMinTime    = time.Second
)

// defaultSeed is the seed whose output digests are recorded in
// digests.json.
const defaultSeed = 1

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(*bench) error{
	"figsweep":      runFigsweep,
	"saturated-sim": runSaturatedSim,
	"serve-mix":     runServeMix,
	"design-space":  runDesignSpace,
}

func main() {
	os.Exit(run())
}

func run() int {
	workload := flag.String("workload", "", "workload to run: figsweep, saturated-sim, serve-mix or design-space")
	seed := flag.Int64("seed", defaultSeed, "input seed; the same seed gives the same inputs")
	seconds := flag.Int("seconds", 15, "measurement time in seconds")
	trace := flag.Int("trace", 0, "0 reports end-to-end metrics; 1 reports per-layer metrics from a traced run")
	setupOnly := flag.Bool("setup-only", false, "run the workload's set-up, report when done and exit (used for set-up samples)")
	out := flag.String("out", "", "also write the result set (environment, samples, metrics) to this JSON file")
	baseline := flag.String("baseline", "", "compare the metrics with a result set written by -out, flagging environment differences")
	flag.Parse()
	drive, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (one of %s), -seconds >= 1 and -trace 0|1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	b := &bench{
		workload:  *workload,
		seed:      *seed,
		seconds:   time.Duration(*seconds) * time.Second,
		trace:     *trace == 1,
		setupOnly: *setupOnly,
	}
	if b.setupOnly {
		if err := drive(b); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s set-up: %v\n", b.workload, err)
			return 1
		}
		return 0
	}
	setups, err := sampleSetup(b)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	b.add("setup_s", "s", setups...)
	b.env = environment(*workload, *seed, *trace)
	if err := drive(b); err != nil {
		b.fail("%s: %v", b.workload, err)
	}
	b.checkDigest()
	res := b.result()
	b.printReport(os.Stdout)
	status := 0
	if *out != "" {
		if err := b.writeResultSet(*out, res); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			status = 1
		}
	}
	if *baseline != "" {
		if err := compareBaseline(os.Stdout, *baseline, b.env, res); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			status = 1
		}
	}
	fmt.Println(string(jsonBytes(res)))
	if !res.Correct {
		return 1
	}
	return status
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// sampleSetup runs the workload's set-up in fresh processes and returns
// their set-up times: from starting the process until it reports its
// set-up done.
func sampleSetup(b *bench) ([]float64, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("locate own binary: %w", err)
	}
	var out []float64
	start := time.Now()
	for i := 0; i < setupMinSamples || (i < setupMaxSamples && time.Since(start) < setupMinTime); i++ {
		v, err := setupSample(self, b)
		if err != nil {
			return nil, fmt.Errorf("set-up sample %d: %w", i, err)
		}
		out = append(out, v)
	}
	return out, nil
}

// setupSample starts one -setup-only child and times it until its
// "setup done" line, then waits for it to clean up and exit.
func setupSample(self string, b *bench) (float64, error) {
	cmd := exec.Command(self, "-workload", b.workload, "-seed", strconv.FormatInt(b.seed, 10), "-setup-only")
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return 0, err
	}
	line, readErr := bufio.NewReader(stdout).ReadString('\n')
	setup := time.Since(t0).Seconds()
	io.Copy(io.Discard, stdout)
	if err := cmd.Wait(); err != nil {
		return 0, err
	}
	if readErr != nil || line != setupDoneLine {
		return 0, fmt.Errorf("child printed %q, want %q", line, setupDoneLine)
	}
	return setup, nil
}

// setupDoneLine is what a -setup-only child prints when its set-up is
// done.
const setupDoneLine = "setup done\n"

// env is the environment record printed and stored with every result
// set: comparisons across differing values are flagged.
type env struct {
	Workload   string `json:"workload"`
	Trace      int    `json:"trace"`
	Seed       int64  `json:"seed"`
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	NumCPU     int    `json:"numcpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

func environment(workload string, seed int64, trace int) env {
	e := env{
		Workload:   workload,
		Trace:      trace,
		Seed:       seed,
		Commit:     "unknown",
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				e.Commit = s.Value
			}
		}
	}
	return e
}

// cpuModel reads the first "model name" of /proc/cpuinfo ("unknown"
// where there is none).
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
