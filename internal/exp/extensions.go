package exp

import (
	"fmt"
	"io"

	"turnmodel/internal/core"
	"turnmodel/internal/deadlock"
	"turnmodel/internal/routing"
	"turnmodel/internal/sim"
	"turnmodel/internal/stats"
	"turnmodel/internal/topology"
	"turnmodel/internal/traffic"
)

// This file registers the experiments that go beyond the paper's
// figures: the introduction's switching-technique latency comparison,
// and the hot-spot study the introduction motivates adaptive routing
// with ("adaptiveness ... provides alternative paths for packets that
// encounter ... hot spots in traffic patterns").

func init() {
	register(Experiment{
		ID:    "intro",
		Title: "Section 1 (text): switching-technique latency — wormhole/VCT scale with L+D, store-and-forward with L*D",
		Run:   runIntro,
	})
	register(Experiment{
		ID:    "hotspot",
		Title: "Extension: hot-spot traffic — adaptive routing spreads load around the hot node",
		Run:   runHotspot,
	})
}

// runIntro measures the uncontended latency of one packet as a function
// of distance for each switching technique, reproducing the
// introduction's scaling comparison.
func runIntro(_ Options, w io.Writer) error {
	topo := topology.NewMesh(16, 2)
	alg := routing.NewDimensionOrder(topo)
	const length = 32
	distances := []int{2, 4, 8, 12}
	tbl := stats.NewTable("switching", "D=2", "D=4", "D=8", "D=12", "scaling")
	for _, sw := range []sim.Switching{sim.Wormhole, sim.VirtualCutThrough, sim.StoreAndForward} {
		row := []interface{}{sw.String()}
		var lats []float64
		for _, d := range distances {
			res, err := sim.Run(sim.Config{
				Algorithm: alg,
				Script: []sim.ScriptedMessage{{
					Src:    topo.ID(topology.Coord{0, 0}),
					Dst:    topo.ID(topology.Coord{d, 0}),
					Length: length,
				}},
				Switching: sw,
			})
			if err != nil {
				return err
			}
			lat := float64(res.Cycles) / sim.CyclesPerMicrosecond
			lats = append(lats, lat)
			row = append(row, fmt.Sprintf("%.2f us", lat))
		}
		// Classify the scaling by the marginal cost of extra distance:
		// about one cycle per hop for L+D, about L cycles per hop for
		// L*D.
		perHop := (lats[len(lats)-1] - lats[0]) / float64(distances[len(distances)-1]-distances[0]) * sim.CyclesPerMicrosecond
		scaling := "~ L + D"
		if perHop > float64(length)/2 {
			scaling = "~ L * D"
		}
		row = append(row, fmt.Sprintf("%s (%.1f cycles/hop)", scaling, perHop))
		tbl.AddRow(row...)
	}
	fmt.Fprintf(w, "single %d-flit packet, no contention, 16x2 mesh (latency = run cycles / 20):\n%s", length, tbl)
	return nil
}

// runHotspot compares xy and negative-first under increasing hot-spot
// intensity at a fixed moderate background load.
func runHotspot(o Options, w io.Writer) error {
	topo := topology.NewMesh(16, 16)
	hot := topo.ID(topology.Coord{8, 8})
	tbl := stats.NewTable("hot fraction", "algorithm", "throughput (flits/us)", "latency (us)", "p99 (us)", "sustainable")
	for _, frac := range []float64{0, 0.05, 0.10} {
		for _, alg := range []routing.Algorithm{routing.NewDimensionOrder(topo), routing.NewNegativeFirst(topo)} {
			res, err := sim.Run(sim.Config{
				Algorithm:     alg,
				Pattern:       traffic.NewHotspot(topo, hot, frac),
				OfferedLoad:   1.0,
				WarmupCycles:  o.warmup(),
				MeasureCycles: o.measure(),
				Seed:          o.Seed,
			})
			if err != nil {
				return err
			}
			sus := "yes"
			if !res.Sustainable {
				sus = "no"
			}
			tbl.AddRow(fmt.Sprintf("%.0f%%", frac*100), alg.Name(), res.Throughput, res.AvgLatency, res.LatencyP99, sus)
		}
	}
	fmt.Fprintf(w, "16x16 mesh, offered 1.0 flits/us/node, fraction of traffic aimed at node (8,8):\n%s", tbl)
	fmt.Fprintf(w, "\nnote: the single ejection channel at the hot node (20 flits/us) bounds every\nalgorithm equally; the adaptive advantage shows in the latency of the\nbackground traffic routed around the congested region\n")
	return nil
}

func init() {
	register(Experiment{
		ID:    "torus",
		Title: "Section 4.2: k-ary n-cube routing — wraparound extensions vs minimal routing with virtual channels",
		Run:   runTorus,
	})
}

// runTorus contrasts the Section 4.2 positions: minimal dimension-order
// torus routing without extra channels is not deadlock free; the paper's
// wraparound extensions (first-hop wraparounds, classified-channel
// negative-first) are deadlock free but strictly nonminimal; and the
// Dally-Seitz dateline scheme buys minimality with two virtual channels.
func runTorus(o Options, w io.Writer) error {
	topo := topology.NewTorus(8, 2)
	tbl := stats.NewTable("algorithm", "channels", "deadlock free", "minimal", "avg hops (uniform sim)")

	type row struct {
		name    string
		check   string
		minimal string
		cfg     sim.Config
	}
	rows := []row{
		{
			name:    "torus-dor (no extra channels)",
			check:   deadlock.Check(routing.NewTorusDOR(topo)).String(),
			minimal: "yes",
			// Simulating it would deadlock; skip.
		},
		{
			name:    "wrap-first-hop(negative-first)",
			check:   deadlock.Check(routing.NewWrapFirstHop(routing.NewNegativeFirst(topo))).String(),
			minimal: "no (first-hop wrap only)",
			cfg: sim.Config{
				Algorithm: routing.NewWrapFirstHop(routing.NewNegativeFirst(topo)),
			},
		},
		{
			name:    "negative-first-torus (classified)",
			check:   deadlock.Check(routing.NewNegativeFirstTorus(topo)).String(),
			minimal: "no (strictly nonminimal)",
			cfg: sim.Config{
				Algorithm: routing.NewNegativeFirstTorus(topo),
			},
		},
		{
			name:    "dateline-dor (2 virtual channels)",
			check:   deadlock.CheckVC(routing.NewDatelineDOR(topo)).String(),
			minimal: "yes",
			cfg: sim.Config{
				VCAlgorithm: routing.NewDatelineDOR(topo),
			},
		},
	}
	for _, r := range rows {
		hops := "(not simulated: would deadlock)"
		free := "yes"
		if len(r.check) > 3 && r.check[:3] == "NOT" {
			free = "NO"
		}
		if free == "yes" && (r.cfg.Algorithm != nil || r.cfg.VCAlgorithm != nil) {
			cfg := r.cfg
			cfg.Pattern = traffic.NewUniform(topo)
			cfg.OfferedLoad = 1.0
			cfg.WarmupCycles = o.warmup()
			cfg.MeasureCycles = o.measure()
			cfg.Seed = o.Seed
			res, err := sim.Run(cfg)
			if err != nil {
				return err
			}
			hops = fmt.Sprintf("%.2f (min avg %.2f)", res.AvgHops, traffic.AverageUniformPathLength(topo))
		}
		channels := "1 per direction"
		if r.name == "dateline-dor (2 virtual channels)" {
			channels = "2 per direction"
		}
		tbl.AddRow(r.name, channels, free, r.minimal, hops)
	}
	fmt.Fprintf(w, "8-ary 2-cube:\n%s", tbl)
	fmt.Fprintf(w, "\ndependency checks:\n")
	fmt.Fprintf(w, "  torus-dor:            %v\n", deadlock.Check(routing.NewTorusDOR(topo)))
	fmt.Fprintf(w, "  wrap-first-hop(nf):   %v\n", deadlock.Check(routing.NewWrapFirstHop(routing.NewNegativeFirst(topo))))
	fmt.Fprintf(w, "  negative-first-torus: %v\n", deadlock.Check(routing.NewNegativeFirstTorus(topo)))
	fmt.Fprintf(w, "  dateline-dor:         %v\n", deadlock.CheckVC(routing.NewDatelineDOR(topo)))
	return nil
}

func init() {
	register(Experiment{
		ID:    "faults",
		Title: "Extension: fault tolerance — nonminimal turn-model routing around broken channels",
		Run:   runFaults,
	})
}

// runFaults injects a growing number of channel faults into an 8x8 mesh
// and compares the minimal west-first relation (which loses
// connectivity) with the nonminimal one under misroute patience (which
// keeps delivering) — the fault-tolerance case the paper makes for
// nonminimal routing.
func runFaults(o Options, w io.Writer) error {
	faultSets := [][]topology.Channel{
		{},
		{
			{From: 8*3 + 3, Dir: topology.Direction{Dim: 0, Pos: true}},
		},
		{
			{From: 8*3 + 3, Dir: topology.Direction{Dim: 0, Pos: true}},
			{From: 8*5 + 2, Dir: topology.Direction{Dim: 1, Pos: true}},
			{From: 8*1 + 6, Dir: topology.Direction{Dim: 1}},
		},
	}
	tbl := stats.NewTable("faults", "relation", "deadlock free", "unroutable pairs", "backlog growth", "latency (us)")
	for _, faults := range faultSets {
		topo := topology.NewMesh(8, 8)
		for _, f := range faults {
			if err := topo.DisableChannel(topology.Channel{From: f.From, Dir: f.Dir}); err != nil {
				return err
			}
		}
		for _, minimal := range []bool{true, false} {
			alg := routing.NewTurnGraphRouting(topo, core.WestFirstSet(), minimal)
			name := "west-first (minimal)"
			var patience int64
			if !minimal {
				name = "west-first (nonminimal)"
				patience = 8
			}
			// Unroutable pairs are a deterministic connectivity metric:
			// sources from which the relation cannot reach a destination
			// at all.
			unroutable := routing.UnroutablePairs(alg)
			check := deadlock.Check(alg)
			res, err := sim.Run(sim.Config{
				Algorithm:     alg,
				Pattern:       traffic.NewUniform(topo),
				OfferedLoad:   1.0,
				WarmupCycles:  o.warmup(),
				MeasureCycles: o.measure(),
				Seed:          o.Seed,
				MisrouteAfter: patience,
			})
			if err != nil {
				return err
			}
			free := "yes"
			if !check.DeadlockFree {
				free = "NO"
			}
			tbl.AddRow(fmt.Sprint(len(faults)), name, free, unroutable, fmt.Sprint(res.BacklogGrowth), res.AvgLatency)
		}
	}
	fmt.Fprintf(w, "8x8 mesh, uniform traffic at 1.0 flits/us/node, growing fault sets:\n%s", tbl)
	fmt.Fprintf(w, "\nthe minimal relation strands every pair whose shortest west-first paths\nall cross a fault (its backlog grows without bound); the nonminimal\nrelation detours using only allowed turns, so deadlock freedom persists\n")
	return nil
}

func init() {
	register(Experiment{
		ID:    "fully",
		Title: "Extension ([18]'s program): fully adaptive routing with an extra y channel vs the paper's channel-free algorithms",
		Run:   runFully,
	})
}

// runFully compares, under transpose traffic, nonadaptive xy, the
// paper's partially adaptive negative-first (no extra channels), and
// the fully adaptive double-y relation (one extra y channel per link) —
// the trade the paper frames in its introduction: "an advantage of
// adding virtual or physical channels, however, is that they can
// support routing algorithms with a high degree of adaptiveness."
func runFully(o Options, w io.Writer) error {
	topo := topology.NewMesh(16, 16)
	fmt.Fprintf(w, "double-y dependency check: %v\n\n", deadlock.CheckVC(routing.NewDoubleY(topo)))
	tbl := stats.NewTable("pattern", "algorithm", "extra channels", "throughput (flits/us)", "latency (us)", "sustainable")
	type entry struct {
		name  string
		extra string
		cfg   sim.Config
	}
	mk := func(pat traffic.Pattern) []entry {
		return []entry{
			{"xy", "none", sim.Config{Algorithm: routing.NewDimensionOrder(topo), Pattern: pat}},
			{"negative-first", "none", sim.Config{Algorithm: routing.NewNegativeFirst(topo), Pattern: pat}},
			{"double-y (fully adaptive)", "+1 y channel", sim.Config{VCAlgorithm: routing.NewDoubleY(topo), Pattern: pat}},
		}
	}
	for _, pat := range []traffic.Pattern{traffic.NewMeshTranspose(topo), traffic.NewUniform(topo)} {
		for _, en := range mk(pat) {
			cfg := en.cfg
			cfg.OfferedLoad = 1.75
			cfg.WarmupCycles = o.warmup()
			cfg.MeasureCycles = o.measure()
			cfg.Seed = o.Seed
			res, err := sim.Run(cfg)
			if err != nil {
				return err
			}
			sus := "yes"
			if !res.Sustainable {
				sus = "no"
			}
			tbl.AddRow(pat.Name(), en.name, en.extra, res.Throughput, res.AvgLatency, sus)
		}
	}
	fmt.Fprintf(w, "16x16 mesh at offered 1.75 flits/us/node:\n%s", tbl)
	return nil
}

func init() {
	register(Experiment{
		ID:    "tornado",
		Title: "Extension: tornado traffic on an 8-ary 2-cube — the wraparound stress test",
		Run:   runTornado,
	})
}

// runTornado drives the k-ary n-cube adversary (every node sends just
// under half way around both rings) against the Section 4.2 options.
// Tornado is why torus routing is hard: all traffic circulates the same
// way, so the no-extra-channel minimal relation would deadlock, the
// paper's nonminimal extensions survive by detouring, and the dateline
// scheme survives with its second virtual channel.
func runTornado(o Options, w io.Writer) error {
	topo := topology.NewTorus(8, 2)
	pat := traffic.NewTornado(topo)
	tbl := stats.NewTable("algorithm", "throughput (flits/us)", "latency (us)", "avg hops", "sustainable")
	cfgs := []struct {
		name string
		cfg  sim.Config
	}{
		{"wrap-first-hop(negative-first)", sim.Config{Algorithm: routing.NewWrapFirstHop(routing.NewNegativeFirst(topo))}},
		{"negative-first-torus", sim.Config{Algorithm: routing.NewNegativeFirstTorus(topo)}},
		{"dateline-dor (2 VCs)", sim.Config{VCAlgorithm: routing.NewDatelineDOR(topo)}},
	}
	for _, c := range cfgs {
		cfg := c.cfg
		cfg.Pattern = pat
		cfg.OfferedLoad = 1.0
		cfg.WarmupCycles = o.warmup()
		cfg.MeasureCycles = o.measure()
		cfg.Seed = o.Seed
		res, err := sim.Run(cfg)
		if err != nil {
			return err
		}
		sus := "yes"
		if !res.Sustainable {
			sus = "no"
		}
		if res.Deadlocked {
			sus = "DEADLOCK"
		}
		tbl.AddRow(c.name, res.Throughput, res.AvgLatency, res.AvgHops, sus)
	}
	fmt.Fprintf(w, "8-ary 2-cube, tornado traffic (per-ring offset 3, minimal distance 6), offered 1.0 flits/us/node:\n%s", tbl)
	fmt.Fprintf(w, "\n(torus-dor is omitted: its dependency graph is cyclic and the run would deadlock;\nsee the 'torus' experiment for the verifier's witness)\n")
	return nil
}
