package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strings"
)

// runRecord is one run in a set.
type runRecord struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Result   result `json:"result"`
}

// runSet is a file of untraced runs: what `bench set` writes and `bench
// compare` reads.
type runSet struct {
	Runs []runRecord `json:"runs"`
}

// setCmd runs every workload --runs times at run_seconds of BENCHMARK.json,
// each run with another seed, and writes the results as one set.
func setCmd(args []string) error {
	fs := flag.NewFlagSet("bench set", flag.ContinueOnError)
	runs := fs.Int("runs", 10, "runs per workload, seeds first-seed..first-seed+runs-1")
	first := fs.Int64("first-seed", 1, "seed of the first run")
	out := fs.String("out", "", "file to write the set to")
	if err := fs.Parse(args); err != nil {
		return err
	}
	bf, err := loadBenchmarkFile()
	if err != nil {
		return err
	}
	if *out == "" {
		return fmt.Errorf("set: --out is required")
	}
	var set runSet
	for i := 0; i < *runs; i++ {
		for _, name := range workloadNames() {
			seed := *first + int64(i)
			res, err := runProcess(name, seed, bf.RunSeconds)
			if err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "%s seed %d: %d attempted, %d failed\n", name, seed, res.Attempted, res.Failed)
			set.Runs = append(set.Runs, runRecord{Workload: name, Seed: seed, Result: *res})
		}
	}
	data, err := json.MarshalIndent(&set, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(*out, append(data, '\n'), 0o644)
}

// runProcess makes one untraced run in a process of its own, as the driver
// does, and returns the result on the last line of its standard output.
func runProcess(workload string, seed int64, seconds int) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "--workload", workload, "--seed", fmt.Sprint(seed),
		"--seconds", fmt.Sprint(seconds), "--trace", "0")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("workload %s seed %d: %w", workload, seed, err)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("workload %s seed %d: unreadable result line: %w", workload, seed, err)
	}
	return &res, nil
}

func readSet(path string) (*runSet, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s runSet
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// values collects one metric's values over a set's runs of one workload.
func (s *runSet) values(workload, metric string) []float64 {
	var vs []float64
	for _, r := range s.Runs {
		if m, ok := r.Result.Metrics[metric]; ok && r.Workload == workload {
			vs = append(vs, m.Value)
		}
	}
	return vs
}

func (s *runSet) failed(workload string) (n int64) {
	for _, r := range s.Runs {
		if r.Workload == workload {
			n += r.Result.Failed
		}
	}
	return n
}

// quartiles returns the three quartiles of vs as Python's
// statistics.quantiles(vs, n=4) gives them — the method the benchmark's
// acceptance is stated in. vs holds at least two values.
func quartiles(vs []float64) (q1, q2, q3 float64) {
	m := len(vs)
	x := append([]float64(nil), vs...)
	sort.Float64s(x)
	q := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := i*(m+1) - j*4
		return (x[j-1]*float64(4-delta) + x[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

// quartileSpread returns (Q3-Q1)/median: the spread the driver accepts or
// refuses the benchmark on.
func quartileSpread(vs []float64) float64 {
	if len(vs) < 2 {
		return 0
	}
	q1, med, q3 := quartiles(vs)
	if med == 0 {
		return 0
	}
	return (q3 - q1) / med
}

// worsening returns by what share of a's median b's median is worse, for a
// metric where better says which direction is good (negative: b is better).
func worsening(a, b float64, better string) float64 {
	if a == 0 {
		return 0
	}
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// compareCmd prints the medians of two sets per workload/metric and applies
// the bounds of BENCHMARK.json: it fails when the second set's median is
// worse than the first's by more than the metric's bound, or when more
// operations failed.
func compareCmd(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: bench compare <setA> <setB>")
	}
	bf, err := loadBenchmarkFile()
	if err != nil {
		return err
	}
	a, err := readSet(args[0])
	if err != nil {
		return err
	}
	b, err := readSet(args[1])
	if err != nil {
		return err
	}
	breaches := 0
	fmt.Printf("%-40s %14s %14s %8s %7s %8s %8s\n", "workload/metric", "median A", "median B", "worse", "bound", "spread A", "spread B")
	for _, wl := range bf.Workloads {
		for _, m := range bf.EndToEnd {
			va, vb := a.values(wl.Name, m.Name), b.values(wl.Name, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				return fmt.Errorf("%s/%s: missing from a set", wl.Name, m.Name)
			}
			ma, mb := median(append([]float64(nil), va...)), median(append([]float64(nil), vb...))
			worse := worsening(ma, mb, m.Better)
			sa, sb := quartileSpread(va), quartileSpread(vb)
			mark := ""
			if worse > m.Bound {
				mark = "  BREACH"
				breaches++
			} else if m.Name != "setup_s" && (sa > m.Bound || sb > m.Bound) {
				mark = "  unresolved: spread exceeds bound"
			}
			fmt.Printf("%-40s %14.4f %14.4f %+7.1f%% %6.0f%% %7.1f%% %7.1f%%%s\n",
				wl.Name+"/"+m.Name, ma, mb, 100*worse, 100*m.Bound, 100*sa, 100*sb, mark)
		}
		if fa, fb := a.failed(wl.Name), b.failed(wl.Name); fb > fa {
			fmt.Printf("%-40s %14d %14d  BREACH: more operations failed\n", wl.Name+"/failed", fa, fb)
			breaches++
		}
	}
	if breaches > 0 {
		return fmt.Errorf("%d bound(s) breached", breaches)
	}
	return nil
}
