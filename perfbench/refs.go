package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro"
)

// The references are the repository's committed outputs at the pinned
// seed. Every workload compares its trials against them exactly.
const (
	goldenPath      = "testdata/golden.json"
	benchSweepPath  = "BENCH_sweep.json"
	reprobenchPath  = "docs/reprobench-output.txt"
	scalabilityHead = "==== scalability ===="
	pinnedSeed      = 1
)

// golden mirrors testdata/golden.json (the fields the benchmark's
// workloads reproduce).
type golden struct {
	RubisBaseThroughput  float64 `json:"rubis_base_throughput"`
	RubisCoordThroughput float64 `json:"rubis_coord_throughput"`
	RubisBaseMeanMs      float64 `json:"rubis_base_mean_ms"`
	RubisCoordMeanMs     float64 `json:"rubis_coord_mean_ms"`
	RubisTunesSent       uint64  `json:"rubis_tunes_sent"`
	TriggerBaseFPS       float64 `json:"trigger_base_fps"`
	TriggerCoordFPS      float64 `json:"trigger_coord_fps"`
	Triggers             uint64  `json:"triggers"`
}

// references holds everything the correctness gate compares against.
type references struct {
	Golden golden
	// Scenarios maps "scenario/plane" to the rep-0 row of BENCH_sweep.json.
	Scenarios map[string]repro.ScenarioRow
	// Scalability is the scalability table of docs/reprobench-output.txt,
	// one rendered ScalabilityPoint per line.
	Scalability []string
}

// loadReferences reads the three committed reference files under root.
func loadReferences(root string) (*references, error) {
	ref := &references{Scenarios: map[string]repro.ScenarioRow{}}

	data, err := os.ReadFile(filepath.Join(root, goldenPath))
	if err != nil {
		return nil, fmt.Errorf("reading golden results: %w", err)
	}
	if err := json.Unmarshal(data, &ref.Golden); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", goldenPath, err)
	}

	data, err = os.ReadFile(filepath.Join(root, benchSweepPath))
	if err != nil {
		return nil, fmt.Errorf("reading bench sweep: %w", err)
	}
	var sweep struct {
		Results []struct {
			Point string          `json:"point"`
			Rep   int             `json:"rep"`
			Data  json.RawMessage `json:"data"`
		} `json:"results"`
	}
	if err := json.Unmarshal(data, &sweep); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", benchSweepPath, err)
	}
	for _, r := range sweep.Results {
		if r.Rep != 0 {
			continue
		}
		var row repro.ScenarioRow
		if err := json.Unmarshal(r.Data, &row); err != nil {
			return nil, fmt.Errorf("parsing %s row %q: %w", benchSweepPath, r.Point, err)
		}
		if row.Plane == "base" || row.Plane == "coord" {
			ref.Scenarios[r.Point] = row
		}
	}

	data, err = os.ReadFile(filepath.Join(root, reprobenchPath))
	if err != nil {
		return nil, fmt.Errorf("reading reprobench output: %w", err)
	}
	ref.Scalability = scalabilityTable(data)
	if len(ref.Scalability) == 0 {
		return nil, fmt.Errorf("%s has no scalability table", reprobenchPath)
	}
	return ref, nil
}

// scalabilityTable extracts the point lines of the scalability section.
func scalabilityTable(data []byte) []string {
	var lines []string
	in := false
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == scalabilityHead:
			in = true
		case in && strings.HasPrefix(line, "===="):
			return lines
		case in && (strings.HasPrefix(line, "star ") || strings.HasPrefix(line, "direct ")):
			lines = append(lines, line)
		}
	}
	return lines
}
