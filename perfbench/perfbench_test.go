package main

import (
	"bytes"
	"encoding/json"
	"math"
	"runtime/pprof"
	"strings"
	"testing"
)

// The tests read the references from the repository root.
const testRoot = ".."

func runPass(t *testing.T, name string, ref *references, seed int64) outcome {
	t.Helper()
	w, err := workloadByName(name)
	if err != nil {
		t.Fatal(err)
	}
	p, err := w.prepare(ref, seed)
	if err != nil {
		t.Fatal(err)
	}
	p.run()
	return p.judge()
}

func loadTestReferences(t *testing.T) *references {
	t.Helper()
	ref, err := loadReferences(testRoot)
	if err != nil {
		t.Fatal(err)
	}
	return ref
}

func TestDoctoredReferenceFailsTrial(t *testing.T) {
	ref := loadTestReferences(t)
	out := runPass(t, "coordscale", ref, pinnedSeed)
	var res result
	res.judgePasses([]passReport{{Outcome: out}})
	if !res.Correct || res.Failed != 0 || res.Attempted != 16 {
		t.Fatalf("clean references: correct=%v attempted=%d failed=%d, want true 16 0", res.Correct, res.Attempted, res.Failed)
	}

	// Doctor one reference value: the star hub's mean latency at 4 islands.
	doctored := strings.Replace(ref.Scalability[2], "mean=  351.1us", "mean=  351.2us", 1)
	if doctored == ref.Scalability[2] {
		t.Fatalf("reference line %q lacks the value to doctor", ref.Scalability[2])
	}
	ref.Scalability[2] = doctored
	out = runPass(t, "coordscale", ref, pinnedSeed)
	res = result{}
	res.judgePasses([]passReport{{Outcome: out}})
	if res.Correct || res.Failed != 1 {
		t.Fatalf("doctored reference: correct=%v failed=%d, want false 1", res.Correct, res.Failed)
	}
	if !strings.Contains(strings.Join(res.notes, "\n"), "FAILED coordscale/star/4: reference mismatch") {
		t.Fatalf("failure detail not printed: %q", res.notes)
	}
}

func TestSameSeedSameOutputs(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the mplayer-trigger workload twice")
	}
	ref := loadTestReferences(t)
	a := runPass(t, "mplayer-trigger", ref, 7)
	b := runPass(t, "mplayer-trigger", ref, 7)
	ja, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	jb, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ja, jb) {
		t.Fatal("two passes at seed 7 differ in simulated outputs or work counts")
	}
	if a.Counts["core.triggers"] == 0 {
		t.Fatal("no Trigger fired; the comparison is vacuous")
	}
}

func TestUnreferencedSeedJudgedByOracles(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the rubis-paper workload")
	}
	out := runPass(t, "rubis-paper", loadTestReferences(t), 2)
	if len(out.Verdicts) != 2 {
		t.Fatalf("%d verdicts, want 2", len(out.Verdicts))
	}
	for _, v := range out.Verdicts {
		if v.Referenced || len(v.Mismatches) > 0 {
			t.Errorf("%s compared against a reference at seed 2", v.Trial)
		}
		if v.Oracles == 0 {
			t.Errorf("%s judged by no oracle", v.Trial)
		}
	}
	// The coordinated trial has a baseline, so the comparative oracles
	// judge it too.
	if base, coord := out.Verdicts[0], out.Verdicts[1]; coord.Oracles <= base.Oracles {
		t.Errorf("coordinated trial judged by %d oracles, base by %d", coord.Oracles, base.Oracles)
	}
}

func TestCPUSharesAttributeLayers(t *testing.T) {
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, _, err := simEvents(deepPending, 300_000); err != nil {
			pprof.StopCPUProfile()
			t.Fatal(err)
		}
	}
	pprof.StopCPUProfile()
	shares, samples, err := cpuShares(prof.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, l := range cpuLayers {
		sum += shares[cpuMetric(l)]
	}
	if math.Abs(sum-100) > 1e-9 {
		t.Errorf("shares sum to %v%%", sum)
	}
	// The driver spends its time in the event heap and in allocating
	// events; none of it belongs to the platform layers.
	kernel := shares["sim.cpu_pct"] + shares["runtime.malloc_pct"] + shares["runtime.gc_pct"]
	if kernel < 50 || shares["ixp.cpu_pct"]+shares["xen.cpu_pct"] != 0 {
		t.Errorf("over %d samples: sim+malloc+gc %.1f%%, ixp %.1f%%, xen %.1f%%",
			samples, kernel, shares["ixp.cpu_pct"], shares["xen.cpu_pct"])
	}
}

func TestFrameLayer(t *testing.T) {
	for fn, want := range map[string]string{
		"repro/internal/ixp.(*FlowQueue).workerLoop.func1": "ixp",
		"repro/internal/sim.(*Simulator).Step":             "sim",
		"repro/internal/trace.(*Tracer).Enabled":           "other",
		"repro.RunRubis":                                   "repro",
		"runtime.mallocgc":                                 "runtime.malloc",
		"runtime.gcBgMarkWorker":                           "runtime.gc",
		"runtime.scanobject":                               "runtime.gc",
		"runtime.memmove":                                  "",
		"main.main":                                        "",
	} {
		if got := frameLayer(fn); got != want {
			t.Errorf("frameLayer(%q) = %q, want %q", fn, got, want)
		}
	}
}
