package main

import (
	"fmt"
	"strings"
	"time"

	"repro"
)

// A workload is a fixed set of simulator trials. prepare reads nothing
// but the references and builds and validates every trial's config; the
// plan it returns runs the trials one at a time and then judges them.
type workload struct {
	name    string
	prepare func(ref *references, seed int64) (*plan, error)
}

// plan is one workload prepared for one seed. run executes every trial in
// order and is the only part the benchmark times; judge inspects what run
// produced.
type plan struct {
	run   func()
	judge func() outcome
}

// outcome is what a pass of a workload produced and how it was judged.
type outcome struct {
	Verdicts []verdict `json:"verdicts"`
	// Outputs holds every simulated output of the pass. Two passes at the
	// same seed must produce identical outputs.
	Outputs any `json:"outputs"`
	// Counts are the per-layer work counts summed over the pass's trials.
	Counts map[string]float64 `json:"counts"`
}

// verdict is the judgement of one trial.
type verdict struct {
	Trial string `json:"trial"`
	// Mismatches lists outputs that differ from the committed reference.
	Mismatches []string `json:"mismatches,omitempty"`
	// Violations lists failed oracles and failed sanity checks.
	Violations []string `json:"violations,omitempty"`
	// Referenced reports whether a committed reference judged the trial.
	Referenced bool `json:"referenced"`
	// Oracles counts the invariant oracles that judged the trial (skipped
	// oracles excluded).
	Oracles int `json:"oracles"`
}

func (v verdict) failed() bool { return len(v.Mismatches)+len(v.Violations) > 0 }

func (v verdict) String() string {
	var parts []string
	for _, m := range v.Mismatches {
		parts = append(parts, "reference mismatch: "+m)
	}
	parts = append(parts, v.Violations...)
	return v.Trial + ": " + strings.Join(parts, "; ")
}

// compare records a mismatch when got differs from the reference want.
func (v *verdict) compare(what string, got, want any) {
	v.Referenced = true
	if got != want {
		v.Mismatches = append(v.Mismatches, fmt.Sprintf("%s = %v, reference %v", what, got, want))
	}
}

func (v *verdict) require(ok bool, format string, args ...any) {
	if !ok {
		v.Violations = append(v.Violations, fmt.Sprintf(format, args...))
	}
}

// judgeOracles judges the run by the invariant-oracle catalog, counting
// the oracles that applied and recording their violations.
func (v *verdict) judgeOracles(cr repro.ChaosRun) {
	for _, o := range repro.CheckInvariants(cr) {
		switch {
		case o.Skipped:
		case o.Ok:
			v.Oracles++
		default:
			v.Oracles++
			v.Violations = append(v.Violations, "oracle "+o.Oracle+": "+o.Detail)
		}
	}
}

var workloads = []workload{
	{name: "rubis-paper", prepare: prepareRubisPaper},
	{name: "mplayer-trigger", prepare: prepareMplayerTrigger},
	{name: "coordscale", prepare: prepareCoordScale},
	{name: "planes", prepare: preparePlanes},
}

func workloadByName(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(names, ", "))
}

// rubisCounts sums the facade's work counters over a pass's RUBiS runs.
func rubisCounts(runs ...*repro.RubisRun) map[string]float64 {
	c := map[string]float64{}
	for _, r := range runs {
		for _, t := range r.PerType {
			c["rubis.responses"] += float64(t.Count)
		}
		c["rubis.sessions"] += float64(r.SessionsCompleted)
		c["core.tunes_sent"] += float64(r.TunesSent)
		c["core.tunes_applied"] += float64(r.TunesApplied)
		c["core.triggers"] += float64(r.Overload.TriggersSent)
		c["pcie.retransmits"] += float64(r.Robustness.Retransmits)
		c["overload.shed"] += float64(r.Overload.QueueShed + r.Overload.Expired + r.Overload.IXPShed)
		c["energy.joules"] += r.Energy.PlatformJoules
	}
	return c
}

// rubisPaperConfig is the golden RUBiS configuration: 40 s with a 10 s
// warmup, 80 closed-loop sessions on the bid mix with write surges (the
// client defaults).
func rubisPaperConfig(seed int64) repro.RubisConfig {
	return repro.RubisConfig{Seed: seed, Duration: 40 * time.Second, Warmup: 10 * time.Second}
}

// prepareRubisPaper is the golden RUBiS pair, uncoordinated then
// coordinated.
func prepareRubisPaper(ref *references, seed int64) (*plan, error) {
	cfg := rubisPaperConfig(seed)
	var base, coord *repro.RubisRun
	return &plan{
		run: func() {
			base = repro.RunRubis(cfg, false)
			coord = repro.RunRubis(cfg, true)
		},
		judge: func() outcome {
			bv := verdict{Trial: "rubis/base"}
			cv := verdict{Trial: "rubis/coord"}
			if seed == pinnedSeed {
				g := ref.Golden
				bv.compare("throughput", base.Throughput, g.RubisBaseThroughput)
				bv.compare("mean_ms", base.MeanOverTypes(), g.RubisBaseMeanMs)
				cv.compare("throughput", coord.Throughput, g.RubisCoordThroughput)
				cv.compare("mean_ms", coord.MeanOverTypes(), g.RubisCoordMeanMs)
				cv.compare("tunes_sent", coord.TunesSent, g.RubisTunesSent)
			}
			bv.judgeOracles(repro.ChaosRun{Config: cfg, Run: base})
			cv.judgeOracles(repro.ChaosRun{Config: cfg, Coordinated: true, Run: coord, Baseline: base})
			return outcome{
				Verdicts: []verdict{bv, cv},
				Outputs:  []*repro.RubisRun{base, coord},
				Counts:   rubisCounts(base, coord),
			}
		},
	}, nil
}

// prepareMplayerTrigger is the Figure 7 buffer-watermark pair at the
// golden configuration (60 s).
func prepareMplayerTrigger(ref *references, seed int64) (*plan, error) {
	var base, coord *repro.TriggerRun
	return &plan{
		run: func() {
			base, coord = repro.RunMplayerTrigger(seed, 60*time.Second)
		},
		judge: func() outcome {
			bv := verdict{Trial: "mplayer/base"}
			cv := verdict{Trial: "mplayer/coord"}
			if seed == pinnedSeed {
				g := ref.Golden
				bv.compare("dom1_fps", base.Dom1FPS, g.TriggerBaseFPS)
				cv.compare("dom1_fps", coord.Dom1FPS, g.TriggerCoordFPS)
				cv.compare("triggers", coord.Triggers, g.Triggers)
			}
			// No oracle covers MPlayer; these checks keep an unreferenced
			// seed from passing vacuously.
			bv.require(base.Dom1FPS > 0, "played no frames")
			bv.require(base.Triggers == 0, "uncoordinated arm fired %d Triggers", base.Triggers)
			cv.require(coord.Dom1FPS > 0, "played no frames")
			cv.require(coord.Triggers > 0, "coordinated arm fired no Trigger")
			return outcome{
				Verdicts: []verdict{bv, cv},
				Outputs:  []*repro.TriggerRun{base, coord},
				Counts:   map[string]float64{"core.triggers": float64(base.Triggers + coord.Triggers)},
			}
		},
	}, nil
}

// prepareCoordScale is RunCoordScalability at its defaults (islands 2 to
// 256, star and direct, 200 msgs/s per island, 10 s), one point at a time.
func prepareCoordScale(ref *references, seed int64) (*plan, error) {
	cfg := repro.ScalabilityConfig{Seed: seed, Workers: 1}
	var points []repro.ScalabilityPoint
	return &plan{
		run: func() { points = repro.RunCoordScalability(cfg) },
		judge: func() outcome {
			var vs []verdict
			for i, p := range points {
				v := verdict{Trial: fmt.Sprintf("coordscale/%s/%d", p.Topology, p.Islands)}
				if seed == pinnedSeed {
					want := "(missing)"
					if i < len(ref.Scalability) {
						want = ref.Scalability[i]
					}
					v.compare("point", p.String(), want)
				}
				v.require(p.RoutedPerSec > 0, "routed nothing")
				vs = append(vs, v)
			}
			if seed == pinnedSeed && len(points) != len(ref.Scalability) {
				vs = append(vs, verdict{Trial: "coordscale", Referenced: true, Mismatches: []string{
					fmt.Sprintf("%d points, reference has %d", len(points), len(ref.Scalability)),
				}})
			}
			return outcome{Verdicts: vs, Outputs: points, Counts: map[string]float64{}}
		},
	}, nil
}

// planeTrial is one catalog scenario compiled for one plane.
type planeTrial struct {
	scenario, plane string
	workload        string
	cfg             repro.RubisConfig
	coordinated     bool
}

// preparePlanes compiles the 6 ScenarioCatalog scenarios (20 s) for the
// base and coord planes exactly as the scenario matrix does for
// repetition 0.
func preparePlanes(ref *references, seed int64) (*plan, error) {
	var trials []planeTrial
	for _, sc := range repro.ScenarioCatalog(20 * time.Second) {
		for _, plane := range []string{"base", "coord"} {
			spec := sc
			spec.Seed = seed
			spec.Coordinated = plane == "coord"
			if spec.Overload != nil {
				ov := *spec.Overload
				ov.Coordinated = spec.Coordinated
				spec.Overload = &ov
			}
			cfg, err := spec.Compile()
			if err != nil {
				return nil, fmt.Errorf("scenario %s/%s: %w", sc.Name, plane, err)
			}
			trials = append(trials, planeTrial{
				scenario: sc.Name, plane: plane, workload: spec.Workload.Kind,
				cfg: cfg, coordinated: spec.Coordinated,
			})
		}
	}
	runs := make([]*repro.RubisRun, len(trials))
	return &plan{
		run: func() {
			for i, t := range trials {
				runs[i] = repro.RunRubis(t.cfg, t.coordinated)
			}
		},
		judge: func() outcome {
			vs := make([]verdict, len(trials))
			rows := make([]repro.ScenarioRow, len(trials))
			for i, t := range trials {
				r := runs[i]
				ov := r.Overload
				rows[i] = repro.ScenarioRow{
					Scenario:    t.scenario,
					Plane:       t.plane,
					Workload:    t.workload,
					Throughput:  r.Throughput,
					MeanMs:      r.MeanOverTypes(),
					Sessions:    r.SessionsCompleted,
					Shed:        ov.QueueShed + ov.Expired + ov.IXPShed,
					Abandoned:   ov.Abandoned,
					Retransmits: r.Robustness.Retransmits,
					Joules:      r.Energy.PlatformJoules,
				}
				name := t.scenario + "/" + t.plane
				v := verdict{Trial: "planes/" + name}
				if seed == pinnedSeed {
					want, ok := ref.Scenarios[name]
					if !ok {
						v.Referenced = true
						v.Mismatches = append(v.Mismatches, "no reference row")
					} else {
						v.compare("row", rows[i], want)
					}
				}
				cr := repro.ChaosRun{Config: t.cfg, Coordinated: t.coordinated, Run: r}
				if t.coordinated {
					// The base plane of the same scenario precedes it.
					cr.Baseline = runs[i-1]
				}
				v.judgeOracles(cr)
				vs[i] = v
			}
			return outcome{Verdicts: vs, Outputs: struct {
				Rows []repro.ScenarioRow
				Runs []*repro.RubisRun
			}{rows, runs}, Counts: rubisCounts(runs...)}
		},
	}, nil
}
