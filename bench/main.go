// Command bench is the repository's end-to-end and per-layer benchmark: six
// named workloads over the batch pipeline, the serving daemon and the wire,
// every input generated from -seed, the program driven only through public
// functions of internal/*. See README.md.
//
// Run it from this directory (it is a module of its own):
//
//	go run . run                       all workloads, end-to-end metrics, checks
//	go run . trace                     all workloads, per-layer metrics
//	go run . check                     output checks only
//	go run . compare old.json new.json
//	go run . measure --workload NAME --seed N --seconds S --trace 0|1
//
// measure is the form ../BENCHMARK.json names: one workload, one JSON line.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"
)

// resultsDir holds the result files of `run` and `trace` and, git-ignored,
// the span dump trace_<workload>.json of every traced run.
const resultsDir = "results"

// runSeconds is how long one `measure` run measures, as BENCHMARK.json states
// it. `run` measures longer by default: the 2-CPU VM the baseline comes from
// flips between a fast and a slow state every ten seconds or so, and a median
// over 20 s of passes lands on the same side far more often than one over 12.
const (
	runSeconds        = 12
	suiteSeconds      = 20
	suiteTraceSeconds = 10
)

var workloads = []workload{
	{name: "batch_global", kind: "batch", setup: setupBatchGlobal,
		why: "the paper's own path, core.Solve on 48 instances of 60 nodes and 2000 users with binding deadlines: partition and combine do the work, serve and transport none"},
	{name: "batch_sharded", kind: "batch", setup: setupBatchSharded,
		why: "the same combine code used the other way, combine.RunSharded on 8 instances of 625 clustered nodes and 30000 users: slicing, per-shard solves, merge and boundary reconciliation"},
	{name: "serve_churn", kind: "serve", setup: setupServeChurn,
		why: "an in-process daemon where every epoch changes (one-slot requests, node faults at 0.15): policy, repair and re-solve dominate and the incremental path is never taken"},
	{name: "serve_steady", kind: "serve", setup: setupServeSteady,
		why: "an in-process daemon with the lifecycle on and 1000 long-lived requests, one small change every 8th epoch: the delta evaluator and record keeping dominate, repair is bypassed"},
	{name: "wire_ordered", kind: "wire", setup: setupWireOrdered,
		why: "fault-free scripts over a unix socket, ordered, closed loop with a window of one epoch: codec, HandleFrame, session and socket dominate, the daemon's reaction is small"},
	{name: "wire_overload", kind: "wire", setup: setupWireOverload,
		why: "loopback TCP, unordered, deadlines, bounded queue, breaker and cloud ladder, event frames through a lossy link: buffering, admission and shedding, the transport used the other way"},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	var err error
	switch cmd, args := os.Args[1], os.Args[2:]; cmd {
	case "run":
		err = cmdRun(args, false)
	case "trace":
		err = cmdRun(args, true)
	case "check":
		err = cmdCheck(args)
	case "compare":
		err = cmdCompare(args)
	case "measure":
		err = cmdMeasure(args)
	case "manifest":
		err = json.NewEncoder(os.Stdout).Encode(manifest())
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: bench run|trace|check|compare|measure [flags]   (see README.md)")
	os.Exit(2)
}

// workers is the parallelism handed to the program wherever it takes a
// worker count: no more than the CPUs the box really has.
func workers() int {
	w := runtime.GOMAXPROCS(0)
	if n := runtime.NumCPU(); n < w {
		w = n
	}
	return w
}

// commonFlags are the flags every measuring subcommand takes.
type commonFlags struct {
	seed    int64
	seconds float64
	only    string
	out     string
}

func parseCommon(name string, args []string, defaultSeconds float64) (commonFlags, error) {
	var c commonFlags
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.Int64Var(&c.seed, "seed", 1, "seed every generated input derives from")
	fs.Float64Var(&c.seconds, "seconds", defaultSeconds, "seconds each workload measures for, after its warm-up pass")
	fs.StringVar(&c.only, "workload", "", "run only this workload (default: all six)")
	fs.StringVar(&c.out, "out", "", "result file to write (default results/<date>_<commit>[_trace].json)")
	return c, fs.Parse(args)
}

func (c commonFlags) selected() ([]*workload, error) {
	if c.only != "" {
		w := findWorkload(c.only)
		if w == nil {
			return nil, fmt.Errorf("unknown workload %q", c.only)
		}
		return []*workload{w}, nil
	}
	out := make([]*workload, len(workloads))
	for i := range workloads {
		out[i] = &workloads[i]
	}
	return out, nil
}

// ResultFile is what `bench run` and `bench trace` write and `bench compare`
// reads.
type ResultFile struct {
	Date       string           `json:"date"`
	Commit     string           `json:"commit"`
	GoVersion  string           `json:"go_version"`
	CPUs       int              `json:"cpus"`
	GOMAXPROCS int              `json:"gomaxprocs"`
	Workers    int              `json:"workers"`
	Seed       int64            `json:"seed"`
	Traced     bool             `json:"traced"`
	Workloads  []WorkloadResult `json:"workloads"`
}

func newResultFile(seed int64, traced bool) *ResultFile {
	return &ResultFile{
		Date: time.Now().UTC().Format("2006-01-02"), Commit: gitCommit(),
		GoVersion: runtime.Version(), CPUs: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), Workers: workers(), Seed: seed, Traced: traced,
	}
}

// gitCommit labels a result file; outside a git checkout it says so.
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "nogit"
	}
	return strings.TrimSpace(string(out))
}

// cmdRun is `bench run` (end-to-end metrics, tracing off) and `bench trace`
// (per-layer metrics from a separate, traced run half as long, every second
// pass of it traced).
func cmdRun(args []string, traced bool) error {
	name, seconds := "run", float64(suiteSeconds)
	if traced {
		name, seconds = "trace", suiteTraceSeconds
	}
	c, err := parseCommon(name, args, seconds)
	if err != nil {
		return err
	}
	sel, err := c.selected()
	if err != nil {
		return err
	}
	rf := newResultFile(c.seed, traced)
	fmt.Printf("bench %s: commit %s, %s, cpus %d, gomaxprocs %d, workers %d, seed %d, %.3gs per workload\n",
		name, rf.Commit, rf.GoVersion, rf.CPUs, rf.GOMAXPROCS, rf.Workers, c.seed, c.seconds)
	if err := os.MkdirAll(resultsDir, 0o755); err != nil {
		return err
	}
	bad := 0
	for _, w := range sel {
		res, err := runWorkload(w, runOpts{seed: c.seed, seconds: c.seconds, traced: traced, workers: rf.Workers})
		if err != nil {
			return err
		}
		printWorkload(res, traced)
		if !res.Correct {
			bad++
		}
		rf.Workloads = append(rf.Workloads, *res)
	}
	path := c.out
	if path == "" {
		suffix := ""
		if traced {
			suffix = "_trace"
		}
		path = fmt.Sprintf("%s/%s_%s%s.json", resultsDir, rf.Date, rf.Commit, suffix)
	}
	if err := writeJSON(path, rf); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	if bad > 0 {
		return fmt.Errorf("%d workload(s) failed their output checks", bad)
	}
	return nil
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// cmdCheck runs every workload just long enough to check its outputs.
func cmdCheck(args []string) error {
	c, err := parseCommon("check", args, 0)
	if err != nil {
		return err
	}
	sel, err := c.selected()
	if err != nil {
		return err
	}
	bad := 0
	for _, w := range sel {
		res, err := runWorkload(w, runOpts{seed: c.seed, seconds: c.seconds, workers: workers()})
		if err != nil {
			return err
		}
		verdict := "ok"
		if !res.Correct {
			verdict = "FAILED: " + strings.Join(res.CheckErrors, "; ")
			bad++
		}
		fmt.Printf("check %-14s seed %d  %d passes  %s\n", w.name, c.seed, res.Passes, verdict)
	}
	if bad > 0 {
		return fmt.Errorf("%d workload(s) failed their output checks", bad)
	}
	return nil
}

// printWorkload prints every metric by name with its unit: the median over
// passes, the min and max over passes as the spread, and the sample count.
func printWorkload(res *WorkloadResult, traced bool) {
	verdict := "outputs ok"
	if !res.Correct {
		verdict = "OUTPUT CHECK FAILED: " + strings.Join(res.CheckErrors, "; ")
	}
	fmt.Printf("\n%s  (seed %d, %d measured passes after 1 warm-up", res.Name, res.Seed, res.Passes)
	if traced {
		fmt.Printf(", %d traced", res.TracedPasses)
	}
	fmt.Printf(", %d operations, %d failed)  %s\n", res.Attempted, res.Failed, verdict)
	ms := res.EndToEnd
	if traced {
		ms = res.PerLayer
	}
	for _, m := range ms {
		tag := ""
		if m.Reported {
			tag = "  reported"
		}
		fmt.Printf("  %-40s %14.6g %-6s  min %-12.6g max %-12.6g n=%d%s\n",
			m.Name, m.Median, m.Unit, m.Min, m.Max, m.Samples, tag)
	}
}

// ---- the BENCHMARK.json contract ----

// cmdMeasure runs one workload and prints one JSON object as the last line of
// standard output: the contract's end-to-end metrics with --trace 0, every
// per-layer metric (0 where the workload has none) with --trace 1.
func cmdMeasure(args []string) error {
	fs := flag.NewFlagSet("measure", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run")
	seed := fs.Int64("seed", 1, "seed every generated input derives from")
	seconds := fs.Float64("seconds", runSeconds, "seconds to measure for, after the warm-up pass")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics, traced")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w := findWorkload(*name)
	if w == nil {
		return fmt.Errorf("unknown workload %q", *name)
	}
	o := runOpts{seed: *seed, seconds: *seconds, traced: *trace == 1, workers: workers()}
	res, err := runWorkload(w, o)
	if err != nil {
		return err
	}
	for _, e := range res.CheckErrors {
		fmt.Fprintln(os.Stderr, "bench: check:", e)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]value{}}
	if o.traced {
		for _, d := range perLayer {
			out.Metrics[d.name] = value{Unit: d.unit}
		}
		for _, m := range res.PerLayer {
			out.Metrics[m.Name] = value{Value: m.Median, Unit: m.Unit}
		}
	} else {
		for _, m := range res.Contract {
			out.Metrics[m.Name] = value{Value: m.Median, Unit: m.Unit}
		}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// manifest renders BENCHMARK.json from the same tables the code measures by,
// so the two cannot drift (a test compares them).
func manifest() map[string]any {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type md struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound,omitempty"`
	}
	var ws []wl
	for _, w := range workloads {
		ws = append(ws, wl{w.name, w.why})
	}
	var e2e, layers []md
	for _, d := range contract {
		b := d.bound
		e2e = append(e2e, md{d.name, d.unit, d.better, &b})
	}
	for _, d := range perLayer {
		layers = append(layers, md{Name: d.name, Unit: d.unit, Better: d.better})
	}
	return map[string]any{
		"command":     []string{"bash", "bench/run.sh"},
		"paths":       []string{"bench"},
		"run_seconds": runSeconds,
		"workloads":   ws,
		"end_to_end":  e2e,
		"per_layer":   layers,
	}
}
