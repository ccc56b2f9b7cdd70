package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestHistoricalBaselinesLoad: the checked-in BENCH files are history
// and are never rewritten, so every one of them — including those whose
// entries carry the shards and move_mode fields of the deleted sharded
// engine — must still load as a baseline and compare against a current
// report, with the gomaxprocs mismatch still flagged.
func TestHistoricalBaselinesLoad(t *testing.T) {
	files, err := filepath.Glob("../../BENCH_*.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no BENCH_*.json files found; test would be vacuous")
	}
	for _, path := range files {
		t.Run(filepath.Base(path), func(t *testing.T) {
			base, err := loadBaseline(path, "")
			if err != nil {
				t.Fatal(err)
			}
			if len(base.Benchmarks) == 0 {
				t.Fatalf("%s loaded with no benchmarks", path)
			}
			first := base.Benchmarks[0]
			cur := &report{GoMaxProcs: effGoMaxProcs(first, base) + 1, Benchmarks: []record{
				{Name: first.Name, NsPerOp: first.NsPerOp + 1},
			}}
			out, err := os.CreateTemp(t.TempDir(), "deltas")
			if err != nil {
				t.Fatal(err)
			}
			printDeltas(out, base, cur)
			out.Close()
			text, err := os.ReadFile(out.Name())
			if err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(string(text), first.Name) {
				t.Errorf("delta table lacks %s:\n%s", first.Name, text)
			}
			if !strings.Contains(string(text), "WARNING: "+first.Name+": baseline measured at gomaxprocs=") {
				t.Errorf("gomaxprocs mismatch not flagged:\n%s", text)
			}
		})
	}
}
