package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// metricSpec mirrors one metric entry of BENCHMARK.json.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

type workloadSpecJSON struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// benchmarkFile is BENCHMARK.json: the single source of metric names,
// units and bounds. The harness refuses to print a metric it does not
// list, so the file and the code cannot drift apart silently.
type benchmarkFile struct {
	Command    []string           `json:"command"`
	Paths      []string           `json:"paths"`
	RunSeconds int                `json:"run_seconds"`
	Workloads  []workloadSpecJSON `json:"workloads"`
	EndToEnd   []metricSpec       `json:"end_to_end"`
	PerLayer   []metricSpec       `json:"per_layer"`
}

func loadBenchmarkFile() (*benchmarkFile, error) {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, fmt.Errorf("run from the repository root: %w", err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &bf, nil
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a run's standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report is a finished run: the result line plus what a human wants to see
// beside it.
type report struct {
	result  result
	samples map[string]int64 // per metric, how many timings it summarises
	notes   []string
	errors  []string // output-check violations; empty when result.Correct
}

// finish shapes raw metric values into a result holding exactly the
// metrics specs lists, each with its declared unit.
func finish(specs []metricSpec, values map[string]float64, attempted, failed int64, errs []string) (result, []string) {
	res := result{Attempted: attempted, Failed: failed, Metrics: make(map[string]metricValue, len(specs))}
	for _, s := range specs {
		v, ok := values[s.Name]
		if !ok {
			errs = append(errs, "metric not produced: "+s.Name)
		}
		res.Metrics[s.Name] = metricValue{Value: v, Unit: s.Unit}
	}
	for name := range values {
		if _, ok := res.Metrics[name]; !ok {
			errs = append(errs, "metric not in BENCHMARK.json: "+name)
		}
	}
	res.Correct = len(errs) == 0
	return res, errs
}
