package main

import (
	"encoding/json"
	"fmt"
	"os"
	"reflect"
)

// This file ties BENCHMARK.json, the driver's contract at the repository
// root, to the tables the harness runs on.

// benchmarkJSON mirrors the driver's BENCHMARK.json schema.
type benchmarkJSON struct {
	Command    []string          `json:"command"`
	Paths      []string          `json:"paths"`
	RunSeconds int               `json:"run_seconds"`
	Workloads  []contractWhy     `json:"workloads"`
	EndToEnd   []contractBounded `json:"end_to_end"`
	PerLayer   []contractMetric  `json:"per_layer"`
}

type contractWhy struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type contractMetric struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

type contractBounded struct {
	contractMetric
	Bound float64 `json:"bound"`
}

func better(higher bool) string {
	if higher {
		return "higher"
	}
	return "lower"
}

// fromCode builds the contract file from the tables the harness runs on.
func fromCode() []byte {
	var b benchmarkJSON
	b.Command = []string{"go", "run", "-C", "benchmark", "."}
	b.Paths = []string{"benchmark"}
	b.RunSeconds = referenceSeconds
	for _, w := range workloads {
		b.Workloads = append(b.Workloads, contractWhy{w.name, w.why})
	}
	for _, name := range driverMetrics {
		for _, d := range endToEndDefs {
			if d.name == name {
				b.EndToEnd = append(b.EndToEnd, contractBounded{contractMetric{d.name, d.unit, better(d.higher)}, driverBound})
			}
		}
	}
	for _, d := range layerDefs {
		b.PerLayer = append(b.PerLayer, contractMetric{d.name, d.unit, better(d.higher)})
	}
	out, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		panic(err)
	}
	return append(out, '\n')
}

// checkContract fails when the driver's contract file and the harness's own
// tables (workloads and their reasons, driver metrics and bounds, layer
// metrics) have drifted apart. Every run checks it: this directory is a
// module of its own, so no test of the root module would.
func checkContract(path string) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var got, want benchmarkJSON
	if err := json.Unmarshal(raw, &got); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if err := json.Unmarshal(fromCode(), &want); err != nil {
		return err
	}
	if !reflect.DeepEqual(got, want) {
		return fmt.Errorf("%s differs from the tables in the code; run go test -C benchmark -run BenchmarkJSON -update .", path)
	}
	return nil
}
