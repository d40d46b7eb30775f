package repro

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/ixp"
)

// differentialRun is one RUBiS run the parked-vs-polling differential
// makes.
type differentialRun struct {
	name        string
	cfg         RubisConfig
	coordinated bool
}

// differentialRuns lists every distinct bench-sweep point at repetition 0,
// with the run shape cfg, and every chaos-corpus entry on the plane it
// selects.
func differentialRuns(t *testing.T, cfg RubisConfig) []differentialRun {
	t.Helper()
	var runs []differentialRun
	for _, p := range FaultMatrixPoints(cfg) {
		c, coord := p.Config.(faultPointCfg).trial(cfg, cfg.Seed)
		runs = append(runs, differentialRun{"faults/" + p.Name, c, coord})
	}
	for _, p := range EnergyMatrixPoints(cfg) {
		runs = append(runs, differentialRun{"energy/" + p.Name, p.Config.(energyPointCfg).trial(cfg, cfg.Seed), true})
	}
	var specs []Scenario
	for _, p := range ScenarioMatrixPoints(cfg) {
		spec := p.Config.(scenarioPointCfg).trial(cfg.Seed)
		spec.Name = "scenarios/" + p.Name
		specs = append(specs, spec)
	}
	files, err := filepath.Glob("testdata/chaos/*.json")
	if err != nil || len(files) == 0 {
		t.Fatalf("chaos corpus: %v (%d files)", err, len(files))
	}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		r, err := ParseChaosRepro(data)
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		r.Scenario.Name = "chaos/" + filepath.Base(f)
		specs = append(specs, r.Scenario)
	}
	for _, spec := range specs {
		c, err := spec.Compile()
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		runs = append(runs, differentialRun{spec.Name, c, spec.Coordinated})
	}
	return runs
}

// recordRuns records every run, on up to GOMAXPROCS goroutines, and
// returns each run's RubisRun JSON and flight log.
func recordRuns(t *testing.T, runs []differentialRun) (results, logs [][]byte) {
	results, logs = make([][]byte, len(runs)), make([][]byte, len(runs))
	errs := make([]error, len(runs))
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for i := range runs {
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			var log bytes.Buffer
			run, err := RecordRubis(runs[i].cfg, runs[i].coordinated, &log)
			if err == nil {
				results[i], err = json.Marshal(run)
			}
			logs[i], errs[i] = log.Bytes(), err
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("%s: %v", runs[i].name, err)
		}
	}
	return results, logs
}

// TestParkedVsPollingAcrossMatrix runs every distinct bench-sweep point
// (repetition 0, shortened to 4 s with a 1 s warmup) and every
// chaos-corpus entry twice: with the parked IXP thread pools and with the
// polling loop they replace (ixp.PollForTest). Both must give the same
// RubisRun JSON and the same flight-log bytes.
func TestParkedVsPollingAcrossMatrix(t *testing.T) {
	runs := differentialRuns(t, RubisConfig{Seed: benchSweepSeed, Duration: 4 * time.Second, Warmup: time.Second})
	parked, parkedLogs := recordRuns(t, runs)
	ixp.PollForTest(t)
	polling, pollingLogs := recordRuns(t, runs)
	for i, r := range runs {
		if !bytes.Equal(parked[i], polling[i]) {
			t.Errorf("%s: results differ\nparked  %s\npolling %s", r.name, parked[i], polling[i])
		}
		if !bytes.Equal(parkedLogs[i], pollingLogs[i]) {
			t.Errorf("%s: flight logs differ (%d vs %d bytes)", r.name, len(parkedLogs[i]), len(pollingLogs[i]))
		}
	}
	t.Logf("%d runs compared", len(runs))
}
