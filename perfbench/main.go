// Command perfbench is the repository's benchmark: the host cost of four
// simulator workloads, end to end and per layer, with every trial's
// simulated outputs checked against the committed references.
//
// Usage, from the repository root:
//
//	perfbench -workload rubis-paper [-seed 1] [-seconds 20] [-trace 0|1]
//
// With -trace 0 it measures the end-to-end metrics: it starts a fresh
// process per set-up probe and per pass over the workload's trials, and
// reports medians. With -trace 1 it takes a CPU profile of one pass, runs
// the per-layer drivers and reports the per-layer metrics. The last line
// of standard output is one JSON object; see README.md.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"repro"
)

func main() {
	name := flag.String("workload", "", "workload to run: rubis-paper, mplayer-trigger, coordscale or planes")
	seed := flag.Int64("seed", pinnedSeed, "workload seed; the references pin seed 1")
	seconds := flag.Int("seconds", 20, "how long to measure, in seconds")
	trace := flag.Int("trace", 0, "1 reports the per-layer metrics of a traced run, 0 the end-to-end metrics")
	root := flag.String("root", ".", "repository root holding the reference files")
	child := flag.String("child", "", "internal: run one set-up probe (setup) or one pass (pass, profile) and report it")
	flag.Parse()

	w, err := workloadByName(*name)
	if err != nil {
		fatal(err)
	}
	if *child != "" {
		if err := runChild(*child, w, *root, *seed); err != nil {
			fatal(err)
		}
		return
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fatal(fmt.Errorf("want -seconds >= 1 and -trace 0 or 1"))
	}
	o := orchestrator{workload: w, root: *root, seed: *seed, budget: time.Duration(*seconds) * time.Second}
	var res result
	if *trace == 1 {
		res, err = o.traced()
	} else {
		res, err = o.endToEnd()
	}
	if err != nil {
		fatal(err)
	}
	res.print(os.Stdout)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// passReport is what a child process reports on its last line.
type passReport struct {
	// SetupDone is the wall clock, in Unix nanoseconds, at which the child
	// reached its first trial call.
	SetupDone int64   `json:"setup_done"`
	WallS     float64 `json:"wall_s"`
	AllocMB   float64 `json:"alloc_mb"`
	PeakRSSMB float64 `json:"peak_rss_mb"`
	Outcome   outcome `json:"outcome"`
	// CPU holds the layer shares of a profiled pass.
	CPU        map[string]float64 `json:"cpu,omitempty"`
	CPUSamples int64              `json:"cpu_samples,omitempty"`
}

// runChild prepares the workload and, unless only probing set-up, runs
// one pass over its trials and reports it as JSON.
func runChild(mode string, w workload, root string, seed int64) error {
	if mode != "setup" && mode != "pass" && mode != "profile" {
		return fmt.Errorf("unknown child mode %q", mode)
	}
	ref, err := loadReferences(root)
	if err != nil {
		return err
	}
	p, err := w.prepare(ref, seed)
	if err != nil {
		return err
	}
	rep := passReport{SetupDone: time.Now().UnixNano()}
	if mode == "setup" {
		return json.NewEncoder(os.Stdout).Encode(rep)
	}
	var prof bytes.Buffer
	if mode == "profile" {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return err
		}
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	p.run()
	rep.WallS = time.Since(t0).Seconds()
	runtime.ReadMemStats(&m1)
	if mode == "profile" {
		pprof.StopCPUProfile()
		if rep.CPU, rep.CPUSamples, err = cpuShares(prof.Bytes()); err != nil {
			return err
		}
	}
	rep.AllocMB = float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20)
	if rep.PeakRSSMB, err = peakRSSMB(); err != nil {
		return err
	}
	rep.Outcome = p.judge()
	return json.NewEncoder(os.Stdout).Encode(rep)
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("reading peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// orchestrator runs child processes one at a time and aggregates them.
type orchestrator struct {
	workload workload
	root     string
	seed     int64
	budget   time.Duration
}

// spawn runs one child and returns its report and the wall clock at which
// it was started.
func (o orchestrator) spawn(mode string) (passReport, int64, error) {
	exe, err := os.Executable()
	if err != nil {
		return passReport{}, 0, err
	}
	cmd := exec.Command(exe, "-child", mode, "-workload", o.workload.name,
		"-seed", strconv.FormatInt(o.seed, 10), "-root", o.root)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	start := time.Now().UnixNano()
	if err := cmd.Run(); err != nil {
		return passReport{}, 0, fmt.Errorf("%s child of %s: %w", mode, o.workload.name, err)
	}
	var rep passReport
	if err := json.Unmarshal(stdout.Bytes(), &rep); err != nil {
		return passReport{}, 0, fmt.Errorf("%s child of %s: bad report: %w", mode, o.workload.name, err)
	}
	return rep, start, nil
}

// setupProbes is how many fresh processes measure set-up per run.
const setupProbes = 21

// minPasses is the fewest passes an end-to-end run makes.
const minPasses = 3

// endToEnd measures the end-to-end metrics: set-up probes first, then
// passes until the next one would end after the budget, each in a fresh
// process, reporting medians.
func (o orchestrator) endToEnd() (result, error) {
	var res result
	var setups []float64
	for i := 0; i < setupProbes; i++ {
		rep, start, err := o.spawn("setup")
		if err != nil {
			return res, err
		}
		setups = append(setups, float64(rep.SetupDone-start)/1e9)
	}
	var walls, allocs, rss []float64
	var passes []passReport
	t0 := time.Now()
	for len(passes) < minPasses || time.Since(t0)+time.Since(t0)/time.Duration(len(passes)) <= o.budget {
		rep, _, err := o.spawn("pass")
		if err != nil {
			return res, err
		}
		passes = append(passes, rep)
		walls = append(walls, rep.WallS)
		allocs = append(allocs, rep.AllocMB)
		rss = append(rss, rep.PeakRSSMB)
	}
	res.judgePasses(passes)
	res.note("%d passes, wall_s per pass %.3f; %d set-up probes", len(passes), walls, len(setups))
	res.metric("wall_s", median(walls), "s")
	res.metric("setup_s", median(setups), "s")
	res.metric("alloc_mb", median(allocs), "MB")
	res.metric("peak_rss_mb", median(rss), "MB")
	return res, nil
}

// traced measures the per-layer metrics: a plain and a profiled pass,
// the per-layer drivers in this process, and the flight recorder's cost.
func (o orchestrator) traced() (result, error) {
	var res result
	plain, _, err := o.spawn("pass")
	if err != nil {
		return res, err
	}
	prof, _, err := o.spawn("profile")
	if err != nil {
		return res, err
	}
	res.judgePasses([]passReport{plain, prof})
	for _, l := range cpuLayers {
		m := cpuMetric(l)
		res.metric(m, prof.CPU[m], "%")
	}
	res.note("cpu profile: %d samples", prof.CPUSamples)
	for _, c := range workCounts {
		res.metric(c.name, prof.Outcome.Counts[c.name], c.unit)
	}
	res.metric("bench.trace_overhead_pct", 100*(prof.WallS-plain.WallS)/plain.WallS, "%")

	for _, d := range layerDrivers {
		res.Attempted++
		ms, err := d.run()
		if err != nil {
			res.Failed++
			res.Correct = false
			res.note("driver %s failed its self-check: %v", d.name, err)
			continue
		}
		for _, m := range driverMetrics {
			if v, ok := ms[m.name]; ok {
				res.metric(m.name, v, m.unit)
			}
		}
	}
	res.Attempted++
	overhead, err := flightOverheadPct()
	if err != nil {
		res.Failed++
		res.Correct = false
		res.note("flight overhead: %v", err)
	} else {
		res.metric("flight.overhead_pct", overhead, "%")
	}
	return res, nil
}

// workCounts are the facade counters a traced pass reports.
var workCounts = []struct{ name, unit string }{
	{"rubis.responses", "count"}, {"rubis.sessions", "count"},
	{"core.tunes_sent", "count"}, {"core.tunes_applied", "count"}, {"core.triggers", "count"},
	{"pcie.retransmits", "count"}, {"overload.shed", "count"}, {"energy.joules", "J"},
}

// driverMetrics are the per-layer driver metrics in report order.
var driverMetrics = []struct{ name, unit string }{
	{"sim.event_ns", "ns"}, {"sim.allocs_per_event", "count"}, {"sim.event_ns_deep", "ns"},
	{"ixp.idle_us_per_sim_ms", "us/ms"}, {"ixp.packet_us", "us"}, {"ixp.allocs_per_packet", "count"},
	{"xen.task_us", "us"}, {"xen.schedules_per_task", "count"},
	{"pcie.tune_us", "us"},
	{"core.reliable_tune_us", "us"}, {"core.retransmits_per_tune", "count"},
	{"overload.admit_ns", "ns"}, {"energy.meter_ns", "ns"},
	{"flight.append_ns", "ns"}, {"flight.bytes_per_event", "B"},
	{"stats.percentile_us", "us"}, {"scenario.generate_ms", "ms"},
}

// flightOverheadPct compares recording the coordinated rubis-paper trial
// with running it unrecorded, and checks both produce the same run.
func flightOverheadPct() (float64, error) {
	cfg := rubisPaperConfig(pinnedSeed)
	t0 := time.Now()
	plain := repro.RunRubis(cfg, true)
	plainS := time.Since(t0).Seconds()
	t0 = time.Now()
	recorded, err := repro.RecordRubis(cfg, true, io.Discard)
	recS := time.Since(t0).Seconds()
	if err != nil {
		return 0, err
	}
	a, err := json.Marshal(plain)
	if err != nil {
		return 0, err
	}
	b, err := json.Marshal(recorded)
	if err != nil {
		return 0, err
	}
	if !bytes.Equal(a, b) {
		return 0, fmt.Errorf("recording changed the simulated run")
	}
	return 100 * (recS - plainS) / plainS, nil
}

// result is the benchmark's report.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	order []string
	notes []string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *result) metric(name string, v float64, unit string) {
	if r.Metrics == nil {
		r.Metrics = map[string]metric{}
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
	r.order = append(r.order, name)
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// judgePasses counts the passes' trials and failures. The run is correct
// when no trial mismatches its reference and every pass produced the same
// simulated outputs; oracle violations count as failed trials.
func (r *result) judgePasses(passes []passReport) {
	r.Correct = true
	seen := map[string]bool{}
	var first []byte
	for i, p := range passes {
		out, err := json.Marshal(p.Outcome.Outputs)
		if err != nil {
			r.Correct = false
			r.note("pass %d: encoding outputs: %v", i, err)
		}
		if i == 0 {
			first = out
		} else if !bytes.Equal(out, first) {
			r.Correct = false
			r.note("pass %d: simulated outputs differ from pass 0 at the same seed", i)
		}
		for _, v := range p.Outcome.Verdicts {
			r.Attempted++
			if !v.failed() {
				continue
			}
			r.Failed++
			if len(v.Mismatches) > 0 {
				r.Correct = false
			}
			if d := v.String(); !seen[d] {
				seen[d] = true
				r.note("FAILED %s", d)
			}
		}
	}
}

// print writes the human-readable report, then the JSON result as the
// last line.
func (r *result) print(w io.Writer) {
	for _, n := range r.notes {
		fmt.Fprintln(w, n)
	}
	for _, name := range r.order {
		m := r.Metrics[name]
		fmt.Fprintf(w, "%-28s %14.6g %s\n", name, m.Value, m.Unit)
	}
	fmt.Fprintf(w, "correct=%v attempted=%d failed=%d\n", r.Correct, r.Attempted, r.Failed)
	out, err := json.Marshal(r)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintln(w, string(out))
}
