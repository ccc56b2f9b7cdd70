package main

import (
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"turnmodel/internal/sim"
	"turnmodel/internal/topology"
)

// TestDigestGate screens the design space as the design-space workload
// does: the default-seed output must match the recorded digest, and a
// single perturbed verdict must fail the run.
func TestDigestGate(t *testing.T) {
	if testing.Short() {
		t.Skip("screens the 16x16 design space")
	}
	out, err := screenAndCheck(topology.NewMesh(16, 16), rand.New(rand.NewSource(defaultSeed)), nil)
	if err != nil {
		t.Fatal(err)
	}
	b := &bench{workload: "design-space", seed: defaultSeed}
	b.setDigest(jsonBytes(out))
	b.checkDigest()
	if len(b.failures) != 0 {
		t.Fatalf("recorded output fails the digest check: %v", b.failures)
	}
	out.Verdicts[0].Edges++
	b = &bench{workload: "design-space", seed: defaultSeed}
	b.setDigest(jsonBytes(out))
	b.checkDigest()
	if len(b.failures) == 0 {
		t.Error("a perturbed output passed the digest check")
	}
	// Other seeds have no recorded digest, only the per-run checks.
	b = &bench{workload: "design-space", seed: defaultSeed + 1}
	b.setDigest(jsonBytes(out))
	b.checkDigest()
	if len(b.failures) != 0 {
		t.Errorf("a non-default seed was held to the recorded digest: %v", b.failures)
	}
}

func TestCheckRun(t *testing.T) {
	ok := sim.Result{PacketsGeneratedTotal: 10, PacketsDeliveredTotal: 7, PacketsDropped: 1, PacketsInFlight: 2}
	if err := checkRun(ok); err != nil {
		t.Errorf("conserving run rejected: %v", err)
	}
	for name, r := range map[string]sim.Result{
		"lost packet": {PacketsGeneratedTotal: 10, PacketsDeliveredTotal: 7, PacketsInFlight: 2},
		"deadlocked":  {Deadlocked: true},
		"stopped":     {Stopped: true},
	} {
		if checkRun(r) == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	perturbed := ok
	perturbed.AvgLatency += 1e-9
	if sameResult(ok, perturbed) {
		t.Error("sameResult missed a changed field")
	}
}

// TestBenchmarkContract keeps BENCHMARK.json and the metrics and
// workloads this program reports in step.
func TestBenchmarkContract(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}
	var spec struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, program runs %v", names, workloadNames())
	}
	for _, c := range []struct {
		name string
		spec []metric
		defs []metricDef
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		var got []metricDef
		for _, m := range c.spec {
			got = append(got, metricDef{m.Name, m.Unit})
		}
		if !reflect.DeepEqual(got, c.defs) {
			t.Errorf("BENCHMARK.json %s %v, program reports %v", c.name, got, c.defs)
		}
	}
}

// TestKnobHygiene keeps the benchmark off the implementation knobs the
// roadmap deletes (engine sharding, route-table bypass, move-mode
// introspection): a removed knob must not break or change the
// benchmark.
func TestKnobHygiene(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	knobs := []string{"Shards", "ShardsAuto", "DisableRouteTable", "MoveMode", `"shards"`, `"disable_route_tables"`}
	for _, f := range files {
		if strings.HasSuffix(f, "_test.go") {
			continue
		}
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range knobs {
			if strings.Contains(string(src), k) {
				t.Errorf("%s uses the implementation knob %s", f, k)
			}
		}
	}
}

// TestBaselineFlagsEnvironment checks that a comparison across
// differing machines, toolchains or seeds is flagged, and one across
// commits alone is not.
func TestBaselineFlagsEnvironment(t *testing.T) {
	base := env{Workload: "figsweep", Seed: 1, Commit: "a", GoVersion: "go1.24.0", CPUModel: "x", NumCPU: 2, GOMAXPROCS: 2}
	cur := base
	cur.Commit = "b"
	if d := envDiffs(base, cur); len(d) != 0 {
		t.Errorf("a commit-only difference was flagged: %v", d)
	}
	cur.GOMAXPROCS, cur.CPUModel, cur.Seed = 4, "y", 2
	path := filepath.Join(t.TempDir(), "base.json")
	b := &bench{env: base}
	res := result{Correct: true, Attempted: 1, Metrics: map[string]metricValue{"wall_s": {2, "s"}}}
	if err := b.writeResultSet(path, res); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	res.Metrics["wall_s"] = metricValue{3, "s"}
	if err := compareBaseline(&out, path, cur, res); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"WARNING: baseline " + path + " differs: seed 1 vs 2", "cpu_model x vs y", "gomaxprocs 2 vs 4", "(+50.0%)"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("comparison output lacks %q:\n%s", want, out.String())
		}
	}
}
