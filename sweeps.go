package repro

import (
	"fmt"
	"math"
	"time"

	"repro/internal/sweep"
)

// SweepOptions shapes a parallel experiment sweep run through the
// internal/sweep engine: worker-pool size, repetitions (aggregated as
// mean ± 95% CI), result caching, and progress reporting. Results are
// byte-identical for any Workers value; see docs/sweeping.md.
type SweepOptions struct {
	// Workers is the trial pool size; <= 0 uses GOMAXPROCS.
	Workers int
	// Reps repeats every point with FNV-derived seed substreams
	// (repetition 0 keeps the base seed); <= 0 means 1.
	Reps int
	// Seed is the sweep's base seed (default 1).
	Seed int64
	// CacheDir, when non-empty, enables the content-hash result cache
	// rooted there (conventionally ".sweepcache").
	CacheDir string
	// Progress, when non-nil, receives a snapshot after every trial.
	Progress func(p sweep.Progress)
}

// options compiles the public options into engine options, opening the
// cache if requested. version is the experiment family's cache version.
func (o SweepOptions) options(version string) (sweep.Options, error) {
	opts := sweep.Options{
		Workers:      o.Workers,
		Reps:         o.Reps,
		Seed:         o.Seed,
		CacheVersion: version,
		Progress:     o.Progress,
	}
	if o.CacheDir != "" {
		cache, err := sweep.OpenCache(o.CacheDir)
		if err != nil {
			return sweep.Options{}, err
		}
		opts.Cache = cache
	}
	return opts, nil
}

// faultMatrixVersion invalidates cached fault-matrix trials when the
// experiment's meaning changes. Bump on any model or metric change.
// v2: overload scenarios (bounded queues + coordinated shedding under
// partition/crash) and shed counters joined the matrix.
const faultMatrixVersion = "fault-matrix-v2"

// FaultsRow is one trial of the fault-injection matrix: a RUBiS run under
// one fault scenario on one coordination plane.
type FaultsRow struct {
	Scenario string `json:"scenario"`
	// Plane is "none" (uncoordinated baseline), "fragile"
	// (fire-and-forget coordination), or "reliable" (ack/retry plane).
	Plane string `json:"plane"`

	Throughput float64 `json:"throughput"`
	MeanMs     float64 `json:"mean_ms"`

	Retransmits     uint64 `json:"retransmits"`
	Expired         uint64 `json:"expired"`
	Degradations    uint64 `json:"degradations"`
	BaselineReverts uint64 `json:"baseline_reverts"`

	// Load is the offered-load multiplier (0 means the calibrated 1×
	// population with no overload control armed).
	Load float64 `json:"load,omitempty"`
	// Shed counts requests rejected by the overload plane (tier queues,
	// deadline expiries, and the NIC admission gate combined).
	Shed uint64 `json:"shed,omitempty"`
}

// faultPointCfg is a fault-matrix point's cache-keyed configuration.
type faultPointCfg struct {
	Scenario   string     `json:"scenario"`
	Plane      string     `json:"plane"`
	DurationNs int64      `json:"duration_ns"`
	WarmupNs   int64      `json:"warmup_ns"`
	Plan       *FaultPlan `json:"plan,omitempty"`
	Load       float64    `json:"load,omitempty"`
}

// FaultScenarios returns the canonical fault-injection scenario matrix for
// a run of the given duration: the same matrix drives `reprobench -exp
// ablation-faults`, the chaos tests, the parallel-determinism test, and
// the pinned bench sweep.
func FaultScenarios(dur time.Duration) []struct {
	Name string
	Plan *FaultPlan
	Load float64
} {
	return []struct {
		Name string
		Plan *FaultPlan
		Load float64
	}{
		{"clean", nil, 0},
		{"loss 30%", &FaultPlan{LossRate: 0.3}, 0},
		{"bursts", &FaultPlan{LossRate: 0.05, BurstRate: 0.02, BurstLen: 16}, 0},
		{"chaos mix", &FaultPlan{
			LossRate: 0.15, DupRate: 0.1, ReorderRate: 0.1,
			SpikeRate: 0.05, JitterMax: 100 * time.Microsecond,
		}, 0},
		{"partition", &FaultPlan{Partitions: []Partition{
			{Start: dur / 4, Duration: dur / 4},
		}}, 0},
		{"ixp crash", &FaultPlan{Crashes: []CrashWindow{
			{Island: "ixp", Start: dur / 4, Duration: dur / 8},
		}}, 0},
		// Overload scenarios drive 2.5× the calibrated session population
		// into bounded tier queues while the same faults hit the
		// coordination plane — the regime where shedding must keep working
		// even as the shed loop's control messages are lost.
		{"overload+partition", &FaultPlan{Partitions: []Partition{
			{Start: dur / 4, Duration: dur / 4},
		}}, 2.5},
		{"overload+crash", &FaultPlan{Crashes: []CrashWindow{
			{Island: "ixp", Start: dur / 4, Duration: dur / 8},
		}}, 2.5},
	}
}

// FaultMatrixPoints expands the scenario matrix into sweep points: the
// uncoordinated baseline first, then every scenario on both the fragile
// and the reliable coordination plane, in stable order.
func FaultMatrixPoints(cfg RubisConfig) []sweep.Point {
	points := []sweep.Point{{
		Name: "baseline",
		Config: faultPointCfg{
			Scenario:   "baseline",
			Plane:      "none",
			DurationNs: int64(cfg.Duration),
			WarmupNs:   int64(cfg.Warmup),
		},
	}}
	for _, sc := range FaultScenarios(cfg.Duration) {
		for _, plane := range []string{"fragile", "reliable"} {
			points = append(points, sweep.Point{
				Name: sc.Name + "/" + plane,
				Config: faultPointCfg{
					Scenario:   sc.Name,
					Plane:      plane,
					DurationNs: int64(cfg.Duration),
					WarmupNs:   int64(cfg.Warmup),
					Plan:       sc.Plan,
					Load:       sc.Load,
				},
			})
		}
	}
	return points
}

// trial returns the run a fault-matrix trial makes with the given seed:
// cfg's run shape with the point's fault plan, plane and load, and
// whether it is coordinated.
func (pc faultPointCfg) trial(cfg RubisConfig, seed int64) (RubisConfig, bool) {
	cfg.Seed = seed
	cfg.Faults = pc.Plan
	cfg.Robust = pc.Plane == "reliable"
	if pc.Load > 0 {
		cfg.LoadFactor = pc.Load
		cfg.RequestTimeout = overloadStressTimeout
		ov := overloadStressKnobs()
		ov.Coordinated = pc.Plane != "none"
		ov.Breaker = pc.Plane == "reliable"
		cfg.Overload = &ov
	}
	return cfg, pc.Plane != "none"
}

// FaultMatrixResult is one parallel run of the fault matrix.
type FaultMatrixResult struct {
	// Sweep is the raw engine result (stable trial order, deterministic
	// JSON, wall-clock throughput).
	Sweep *sweep.RunResult
	// Rows holds the decoded trials in the same stable order.
	Rows []FaultsRow
}

// RunFaultMatrix fans the fault-injection matrix (baseline + scenarios ×
// planes, × repetitions) across the sweep worker pool. cfg supplies the
// run shape (Duration, Warmup); its Seed, Faults, and Robust fields are
// overridden per trial.
func RunFaultMatrix(cfg RubisConfig, opt SweepOptions) (*FaultMatrixResult, error) {
	if opt.Seed == 0 {
		opt.Seed = cfg.Seed
	}
	opts, err := opt.options(faultMatrixVersion)
	if err != nil {
		return nil, err
	}
	points := FaultMatrixPoints(cfg)
	res, err := sweep.Run(points, func(t sweep.Trial) (any, error) {
		pc, ok := t.Point.Config.(faultPointCfg)
		if !ok {
			return nil, fmt.Errorf("repro: fault-matrix point %q has config %T", t.Point.Name, t.Point.Config)
		}
		r := RunRubis(pc.trial(cfg, t.Seed))
		rb := r.Robustness
		ov := r.Overload
		return FaultsRow{
			Scenario:        pc.Scenario,
			Plane:           pc.Plane,
			Throughput:      r.Throughput,
			MeanMs:          r.MeanOverTypes(),
			Retransmits:     rb.Retransmits,
			Expired:         rb.Expired,
			Degradations:    rb.Degradations,
			BaselineReverts: rb.BaselineReverts,
			Load:            pc.Load,
			Shed:            ov.QueueShed + ov.Expired + ov.IXPShed,
		}, nil
	}, opts)
	if err != nil {
		return nil, err
	}
	if err := res.Err(); err != nil {
		return nil, err
	}
	out := &FaultMatrixResult{Sweep: res, Rows: make([]FaultsRow, len(res.Trials))}
	for i := range res.Trials {
		if err := res.Decode(i, &out.Rows[i]); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Row returns the first-repetition row for a scenario/plane pair, for
// callers that address the matrix by name rather than index.
func (r *FaultMatrixResult) Row(scenario, plane string) (FaultsRow, bool) {
	for _, row := range r.Rows {
		if row.Scenario == scenario && row.Plane == plane {
			return row, true
		}
	}
	return FaultsRow{}, false
}

// overloadMatrixVersion invalidates cached overload-matrix trials when
// the experiment's meaning changes.
const overloadMatrixVersion = "overload-matrix-v1"

// overloadStressTimeout is the client patience used by the overload
// ablation and the overload fault scenarios: long enough that the
// calibrated 1x population rarely abandons, short enough that queueing
// delay past saturation turns into abandoned (wasted) work.
const overloadStressTimeout = 2 * time.Second

// overloadStressKnobs is the tight admission envelope those experiments
// arm: queues shallow enough to bind past saturation and a queueing
// deadline well under the client timeout, so expiry sheds work the
// client would have abandoned anyway.
func overloadStressKnobs() OverloadControl {
	return OverloadControl{
		QueueCap:      64,
		QueueDeadline: 300 * time.Millisecond,
		Threshold:     150 * time.Millisecond,
	}
}

// OverloadLoads is the offered-load axis of the overload ablation: the
// session-population multipliers swept for every control level.
var OverloadLoads = []float64{1, 2, 3, 4}

// OverloadControls is the control axis of the overload ablation, weakest
// first: no overload control (unbounded queues), bounded tier queues with
// local shedding only, and the full coordinated plane that also sheds at
// the NIC before PCIe.
var OverloadControls = []string{"none", "bounded", "coordinated"}

// OverloadRow is one trial of the overload ablation: a RUBiS run at one
// offered-load multiplier under one overload-control level.
type OverloadRow struct {
	Control string  `json:"control"`
	Load    float64 `json:"load"`

	// Goodput is served (non-shed) requests per second; ServedP95Ms the
	// p95 latency over served responses only.
	Goodput     float64 `json:"goodput"`
	ServedP95Ms float64 `json:"served_p95_ms"`

	QueueShed uint64 `json:"queue_shed"`
	Expired   uint64 `json:"expired"`
	IXPShed   uint64 `json:"ixp_shed"`
	Abandoned uint64 `json:"abandoned"`
	Triggers  uint64 `json:"triggers"`
	ShedTunes uint64 `json:"shed_tunes"`
}

// overloadPointCfg is an overload-matrix point's cache-keyed configuration.
type overloadPointCfg struct {
	Control    string  `json:"control"`
	Load       float64 `json:"load"`
	DurationNs int64   `json:"duration_ns"`
	WarmupNs   int64   `json:"warmup_ns"`
}

// OverloadMatrixPoints expands the overload ablation into sweep points in
// stable order: every control level at every offered-load multiplier.
func OverloadMatrixPoints(cfg RubisConfig) []sweep.Point {
	var points []sweep.Point
	for _, control := range OverloadControls {
		for _, load := range OverloadLoads {
			points = append(points, sweep.Point{
				Name: fmt.Sprintf("%s/%gx", control, load),
				Config: overloadPointCfg{
					Control:    control,
					Load:       load,
					DurationNs: int64(cfg.Duration),
					WarmupNs:   int64(cfg.Warmup),
				},
			})
		}
	}
	return points
}

// OverloadMatrixResult is one parallel run of the overload ablation.
type OverloadMatrixResult struct {
	Sweep *sweep.RunResult
	Rows  []OverloadRow
}

// RunOverloadMatrix fans the overload ablation (controls × loads ×
// repetitions) across the sweep worker pool. The paper's weight-tuning
// scheme is left off for every trial so the matrix isolates the overload
// plane; coordinated trials still actuate weight boosts through the
// controller's Trigger translation.
func RunOverloadMatrix(cfg RubisConfig, opt SweepOptions) (*OverloadMatrixResult, error) {
	if opt.Seed == 0 {
		opt.Seed = cfg.Seed
	}
	opts, err := opt.options(overloadMatrixVersion)
	if err != nil {
		return nil, err
	}
	points := OverloadMatrixPoints(cfg)
	res, err := sweep.Run(points, func(t sweep.Trial) (any, error) {
		pc, ok := t.Point.Config.(overloadPointCfg)
		if !ok {
			return nil, fmt.Errorf("repro: overload-matrix point %q has config %T", t.Point.Name, t.Point.Config)
		}
		trialCfg := cfg
		trialCfg.Seed = t.Seed
		trialCfg.LoadFactor = pc.Load
		// Sessions abandon pages unanswered in 2s — identical client
		// behaviour for every control level, so the matrix isolates how
		// much server work each level wastes on abandoned pages. At 4x
		// load the uncontrolled baseline serves nothing in time at all
		// (goodput 0, p95 printed as 0 for lack of samples).
		trialCfg.RequestTimeout = overloadStressTimeout
		// The default knobs (cap 512, deadline 4s) are sized never to bind
		// at the calibrated population; the ablation stresses a deliberately
		// tight envelope so the control levels separate.
		stress := overloadStressKnobs()
		switch pc.Control {
		case "none":
			trialCfg.Overload = nil
		case "bounded":
			ov := stress
			trialCfg.Overload = &ov
		case "coordinated":
			ov := stress
			ov.Coordinated = true
			trialCfg.Overload = &ov
		default:
			return nil, fmt.Errorf("repro: unknown overload control %q", pc.Control)
		}
		r := RunRubis(trialCfg, false)
		ov := r.Overload
		return OverloadRow{
			Control:     pc.Control,
			Load:        pc.Load,
			Goodput:     r.Throughput,
			ServedP95Ms: ov.ServedP95Ms,
			QueueShed:   ov.QueueShed,
			Expired:     ov.Expired,
			IXPShed:     ov.IXPShed,
			Abandoned:   ov.Abandoned,
			Triggers:    ov.TriggersSent,
			ShedTunes:   ov.ShedTunes,
		}, nil
	}, opts)
	if err != nil {
		return nil, err
	}
	if err := res.Err(); err != nil {
		return nil, err
	}
	out := &OverloadMatrixResult{Sweep: res, Rows: make([]OverloadRow, len(res.Trials))}
	for i := range res.Trials {
		if err := res.Decode(i, &out.Rows[i]); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Row returns the first-repetition row for a control/load pair. Loads are
// grid values (1x, 2x, ...) so a coarse tolerance identifies them.
func (r *OverloadMatrixResult) Row(control string, load float64) (OverloadRow, bool) {
	for _, row := range r.Rows {
		if row.Control == control && math.Abs(row.Load-load) < 1e-9 {
			return row, true
		}
	}
	return OverloadRow{}, false
}

// energyMatrixVersion invalidates cached energy-matrix trials when the
// experiment's meaning changes.
const energyMatrixVersion = "energy-matrix-v1"

// EnergyLoads is the offered-load axis of the energy ablation: half the
// calibrated population (latency slack on both islands), the calibrated
// 1× point (the x86 island saturated, slack visible only to a
// latency-aware governor), and 1.5× (past saturation, where no governor
// can meet the SLO and every plane converges on the top points).
var EnergyLoads = []float64{0.5, 1, 1.5}

// EnergyGovernors is the policy axis of the energy ablation, weakest
// first: no governor (both islands pinned at their top operating points),
// per-island latency-blind ondemand governors (the uncoordinated
// ablation), and the QoS-constrained coordinated governor.
var EnergyGovernors = []string{"off", "ondemand", "coordinated"}

// EnergyRow is one trial of the energy ablation: a RUBiS run at one
// offered-load multiplier under one governor policy.
type EnergyRow struct {
	Governor string  `json:"governor"`
	Load     float64 `json:"load"`

	PlatformJoules   float64 `json:"platform_joules"`
	X86Joules        float64 `json:"x86_joules"`
	IXPJoules        float64 `json:"ixp_joules"`
	JoulesPerRequest float64 `json:"joules_per_request"`

	Throughput  float64 `json:"throughput"`
	ServedP95Ms float64 `json:"served_p95_ms"`

	// QoSViolations counts control windows whose p95 exceeded the SLO
	// (out of QoSWindows observed); Transitions counts operating-point
	// changes committed across both islands.
	QoSViolations int `json:"qos_violations"`
	QoSWindows    int `json:"qos_windows"`
	Transitions   int `json:"transitions"`
}

// energyPointCfg is an energy-matrix point's cache-keyed configuration.
type energyPointCfg struct {
	Governor   string  `json:"governor"`
	Load       float64 `json:"load"`
	DurationNs int64   `json:"duration_ns"`
	WarmupNs   int64   `json:"warmup_ns"`
}

// EnergyMatrixPoints expands the energy ablation into sweep points in
// stable order: every governor policy at every offered-load multiplier.
func EnergyMatrixPoints(cfg RubisConfig) []sweep.Point {
	var points []sweep.Point
	for _, gov := range EnergyGovernors {
		for _, load := range EnergyLoads {
			points = append(points, sweep.Point{
				Name: fmt.Sprintf("%s/%gx", gov, load),
				Config: energyPointCfg{
					Governor:   gov,
					Load:       load,
					DurationNs: int64(cfg.Duration),
					WarmupNs:   int64(cfg.Warmup),
				},
			})
		}
	}
	return points
}

// trial returns the run an energy-matrix trial makes with the given seed:
// cfg's run shape with the point's governor and load. Every energy trial
// is coordinated.
func (pc energyPointCfg) trial(cfg RubisConfig, seed int64) RubisConfig {
	cfg.Seed = seed
	cfg.LoadFactor = pc.Load
	cfg.Energy = &EnergyControl{Governor: pc.Governor}
	return cfg
}

// EnergyMatrixResult is one parallel run of the energy ablation.
type EnergyMatrixResult struct {
	Sweep *sweep.RunResult
	Rows  []EnergyRow
}

// RunEnergyMatrix fans the energy ablation (governors × loads ×
// repetitions) across the sweep worker pool. The paper's weight-tuning
// scheme stays on for every trial so the matrix isolates the energy
// governor; every other knob is the calibrated default.
func RunEnergyMatrix(cfg RubisConfig, opt SweepOptions) (*EnergyMatrixResult, error) {
	if opt.Seed == 0 {
		opt.Seed = cfg.Seed
	}
	opts, err := opt.options(energyMatrixVersion)
	if err != nil {
		return nil, err
	}
	points := EnergyMatrixPoints(cfg)
	res, err := sweep.Run(points, func(t sweep.Trial) (any, error) {
		pc, ok := t.Point.Config.(energyPointCfg)
		if !ok {
			return nil, fmt.Errorf("repro: energy-matrix point %q has config %T", t.Point.Name, t.Point.Config)
		}
		r := RunRubis(pc.trial(cfg, t.Seed), true)
		e := r.Energy
		return EnergyRow{
			Governor:         pc.Governor,
			Load:             pc.Load,
			PlatformJoules:   e.PlatformJoules,
			X86Joules:        e.X86Joules,
			IXPJoules:        e.IXPJoules,
			JoulesPerRequest: e.JoulesPerRequest,
			Throughput:       r.Throughput,
			ServedP95Ms:      r.Overload.ServedP95Ms,
			QoSViolations:    e.QoSViolations,
			QoSWindows:       e.QoSWindows,
			Transitions:      e.Transitions,
		}, nil
	}, opts)
	if err != nil {
		return nil, err
	}
	if err := res.Err(); err != nil {
		return nil, err
	}
	out := &EnergyMatrixResult{Sweep: res, Rows: make([]EnergyRow, len(res.Trials))}
	for i := range res.Trials {
		if err := res.Decode(i, &out.Rows[i]); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Row returns the first-repetition row for a governor/load pair.
func (r *EnergyMatrixResult) Row(governor string, load float64) (EnergyRow, bool) {
	for _, row := range r.Rows {
		if row.Governor == governor && math.Abs(row.Load-load) < 1e-9 {
			return row, true
		}
	}
	return EnergyRow{}, false
}

// Pinned bench-sweep configuration: the regression guard reruns exactly
// this sweep and compares against the committed BENCH_sweep.json. The
// simulated metrics are a pure function of these values, so any drift
// means the models changed; the wall-clock trial throughput seeds the
// perf trajectory.
const (
	BenchSweepName = "rubis-matrix"
	benchSweepSeed = 1
	benchSweepReps = 2
	benchSweepDur  = 20 * time.Second
)

// RunBenchSweep executes the pinned benchmark suite — the fault matrix,
// the trace-driven scenario matrix, and the energy matrix, merged into one
// report — and returns it. The cache is deliberately not used: the guard
// measures real trial throughput.
func RunBenchSweep(workers int, progress func(p sweep.Progress)) (*sweep.BenchReport, error) {
	cfg := RubisConfig{Seed: benchSweepSeed, Duration: benchSweepDur}
	opt := SweepOptions{Workers: workers, Reps: benchSweepReps, Seed: benchSweepSeed, Progress: progress}
	faults, err := RunFaultMatrix(cfg, opt)
	if err != nil {
		return nil, err
	}
	scenarios, err := RunScenarioMatrix(cfg, opt)
	if err != nil {
		return nil, err
	}
	energy, err := RunEnergyMatrix(cfg, opt)
	if err != nil {
		return nil, err
	}
	return sweep.MergeBenchReports(BenchSweepName,
		sweep.NewBenchReport(BenchSweepName, faults.Sweep),
		sweep.NewBenchReport(BenchSweepName, scenarios.Sweep),
		sweep.NewBenchReport(BenchSweepName, energy.Sweep),
	), nil
}

// failoverMatrixVersion invalidates cached failover-matrix trials when the
// experiment's meaning changes.
const failoverMatrixVersion = "failover-matrix-v1"

// FailoverRow is one trial of the controller-availability matrix: a RUBiS
// run with a solo or replicated controller under one controller fault
// scenario.
type FailoverRow struct {
	Scenario string `json:"scenario"`
	// Plane is "solo" (one controller, checkpointing but nothing to fail
	// over to) or "replicated" (three replicas, deterministic election).
	Plane string `json:"plane"`

	Throughput float64 `json:"throughput"`
	MeanMs     float64 `json:"mean_ms"`

	Checkpoints    uint64 `json:"checkpoints"`
	Promotions     uint64 `json:"promotions"`
	StaleDropped   uint64 `json:"stale_dropped"`
	NoPrimaryDrops uint64 `json:"no_primary_drops"`

	// Load is the offered-load multiplier (0 means the calibrated 1×
	// population with no overload control armed).
	Load float64 `json:"load,omitempty"`
	Shed uint64  `json:"shed,omitempty"`
}

// failoverPointCfg is a failover-matrix point's cache-keyed configuration.
type failoverPointCfg struct {
	Scenario   string     `json:"scenario"`
	Plane      string     `json:"plane"`
	Replicas   int        `json:"replicas"`
	DurationNs int64      `json:"duration_ns"`
	WarmupNs   int64      `json:"warmup_ns"`
	Plan       *FaultPlan `json:"plan,omitempty"`
	Load       float64    `json:"load,omitempty"`
}

// FailoverScenarios returns the canonical controller fault-window matrix
// for a run of the given duration: the same matrix drives `reprobench -exp
// ablation-failover` and the failover chaos tests. Replica 0 is the
// initial primary in every scenario.
func FailoverScenarios(dur time.Duration) []struct {
	Name string
	Plan *FaultPlan
	Load float64
} {
	return []struct {
		Name string
		Plan *FaultPlan
		Load float64
	}{
		{"clean", nil, 0},
		{"primary crash", &FaultPlan{ControllerCrashes: []ReplicaWindow{
			{Replica: 0, Start: dur / 4, Duration: dur / 4},
		}}, 0},
		{"primary partition", &FaultPlan{ControllerPartitions: []ReplicaWindow{
			{Replica: 0, Start: dur / 4, Duration: dur / 4},
		}}, 0},
		// The overload scenario kills the primary while 2x the calibrated
		// population keeps the shed loop busy — the promoted standby must
		// pick up both routing and overload translation.
		{"overload+crash", &FaultPlan{ControllerCrashes: []ReplicaWindow{
			{Replica: 0, Start: dur / 4, Duration: dur / 4},
		}}, 2.0},
	}
}

// FailoverMatrixPoints expands the scenario matrix into sweep points:
// every scenario on the solo (1 replica) and replicated (3 replicas)
// controller plane, in stable order.
func FailoverMatrixPoints(cfg RubisConfig) []sweep.Point {
	var points []sweep.Point
	for _, sc := range FailoverScenarios(cfg.Duration) {
		for _, plane := range []struct {
			Name     string
			Replicas int
		}{{"solo", 1}, {"replicated", 3}} {
			points = append(points, sweep.Point{
				Name: sc.Name + "/" + plane.Name,
				Config: failoverPointCfg{
					Scenario:   sc.Name,
					Plane:      plane.Name,
					Replicas:   plane.Replicas,
					DurationNs: int64(cfg.Duration),
					WarmupNs:   int64(cfg.Warmup),
					Plan:       sc.Plan,
					Load:       sc.Load,
				},
			})
		}
	}
	return points
}

// FailoverMatrixResult is one parallel run of the failover matrix.
type FailoverMatrixResult struct {
	Sweep *sweep.RunResult
	Rows  []FailoverRow
}

// RunFailoverMatrix fans the controller-availability matrix (scenarios ×
// controller planes, × repetitions) across the sweep worker pool. cfg
// supplies the run shape (Duration, Warmup); its Seed, Faults, Robust, and
// Failover fields are overridden per trial.
func RunFailoverMatrix(cfg RubisConfig, opt SweepOptions) (*FailoverMatrixResult, error) {
	if opt.Seed == 0 {
		opt.Seed = cfg.Seed
	}
	opts, err := opt.options(failoverMatrixVersion)
	if err != nil {
		return nil, err
	}
	points := FailoverMatrixPoints(cfg)
	res, err := sweep.Run(points, func(t sweep.Trial) (any, error) {
		pc, ok := t.Point.Config.(failoverPointCfg)
		if !ok {
			return nil, fmt.Errorf("repro: failover-matrix point %q has config %T", t.Point.Name, t.Point.Config)
		}
		trialCfg := cfg
		trialCfg.Seed = t.Seed
		trialCfg.Faults = pc.Plan
		trialCfg.Robust = true
		trialCfg.Failover = &FailoverControl{Replicas: pc.Replicas}
		if pc.Load > 0 {
			trialCfg.LoadFactor = pc.Load
			trialCfg.RequestTimeout = overloadStressTimeout
			ov := overloadStressKnobs()
			ov.Coordinated = true
			ov.Breaker = true
			trialCfg.Overload = &ov
		}
		r := RunRubis(trialCfg, true)
		fo := r.Failover
		ov := r.Overload
		return FailoverRow{
			Scenario:       pc.Scenario,
			Plane:          pc.Plane,
			Throughput:     r.Throughput,
			MeanMs:         r.MeanOverTypes(),
			Checkpoints:    fo.Checkpoints,
			Promotions:     fo.Promotions,
			StaleDropped:   fo.StaleDropped,
			NoPrimaryDrops: fo.NoPrimaryDrops,
			Load:           pc.Load,
			Shed:           ov.QueueShed + ov.Expired + ov.IXPShed,
		}, nil
	}, opts)
	if err != nil {
		return nil, err
	}
	if err := res.Err(); err != nil {
		return nil, err
	}
	out := &FailoverMatrixResult{Sweep: res, Rows: make([]FailoverRow, len(res.Trials))}
	for i := range res.Trials {
		if err := res.Decode(i, &out.Rows[i]); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Row returns the first-repetition row for a scenario/plane pair.
func (r *FailoverMatrixResult) Row(scenario, plane string) (FailoverRow, bool) {
	for _, row := range r.Rows {
		if row.Scenario == scenario && row.Plane == plane {
			return row, true
		}
	}
	return FailoverRow{}, false
}
