// Command mcam-bench is the MCAM benchmark: four workloads against an
// in-process xmovie.Server, ten end-to-end metrics per workload, and — in a
// separate traced run — the per-layer numbers. See README.md beside this
// file. It is run from the root of a checkout through run.sh, which builds
// it first:
//
//	bash bench/run.sh --workload ctl-handcoded --seed 1 --seconds 26 --trace 0
//	bash bench/run.sh set --runs 10 --out bench/out/a.json
//	bash bench/run.sh compare bench/baseline/set-a.json bench/baseline/set-b.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// runTimeout bounds a run; the driver allows one 180 s.
const runTimeout = 170 * time.Second

func main() {
	if err := dispatch(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func dispatch(args []string) error {
	if len(args) > 0 {
		switch args[0] {
		case "compare":
			return compareCmd(args[1:])
		case "set":
			return setCmd(args[1:])
		}
	}
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "seed every generated input derives from")
	seconds := fs.Int("seconds", 0, "measured seconds (default: run_seconds of BENCHMARK.json)")
	trace := fs.Int("trace", 0, "1: traced run printing the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return err
	}
	bf, err := loadBenchmarkFile()
	if err != nil {
		return err
	}
	if *seconds <= 0 {
		*seconds = bf.RunSeconds
	}
	wl := findWorkload(*name)
	if wl == nil {
		return fmt.Errorf("unknown workload %q (have %s)", *name, strings.Join(workloadNames(), ", "))
	}
	watchdog := time.AfterFunc(runTimeout, func() {
		fmt.Fprintf(os.Stderr, "bench: workload %s exceeded %v\n", wl.name, runTimeout)
		os.Exit(2)
	})
	defer watchdog.Stop()
	rep, err := runWorkload(wl, *seed, *seconds, *trace != 0, filepath.Join("bench", "out"), bf)
	if err != nil {
		return err
	}
	printReport(os.Stdout, wl.name, rep)
	line, err := json.Marshal(rep.result)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !rep.result.Correct {
		return fmt.Errorf("workload %s: output check failed: %s", wl.name, strings.Join(rep.errors, "; "))
	}
	return nil
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

// printReport writes the human-readable part: every metric by name with
// its unit and sample count, then the harness's notes.
func printReport(f *os.File, name string, rep *report) {
	w := bufio.NewWriter(f)
	defer w.Flush()
	fmt.Fprintf(w, "workload %s: %d operations attempted, %d failed\n", name, rep.result.Attempted, rep.result.Failed)
	names := make([]string, 0, len(rep.result.Metrics))
	for n := range rep.result.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := rep.result.Metrics[n]
		fmt.Fprintf(w, "  %-36s %14.4f %-6s", n, m.Value, m.Unit)
		if c, ok := rep.samples[n]; ok {
			fmt.Fprintf(w, " (%d samples)", c)
		}
		fmt.Fprintln(w)
	}
	for _, note := range rep.notes {
		fmt.Fprintln(w, "  #", note)
	}
}
