// Command soclbench regenerates the SoCL paper's evaluation tables and
// figures (Figs. 2, 3, 4, 7, 8, 9, 10) using the drivers in
// internal/experiments. Results print as text tables and, with -out, are
// also written as one CSV per table.
//
// Usage:
//
//	soclbench -experiment all -out results/
//	soclbench -experiment fig7 -short
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/experiments"
)

// experimentUsage lists the registry for -experiment's help text.
func experimentUsage() string {
	ids := make([]string, len(experiments.Registry))
	for i, e := range experiments.Registry {
		ids[i] = e.ID
	}
	return strings.Join(ids, " | ") + " | all (the paper's figures) | ext (all extensions)"
}

func main() {
	var (
		experiment = flag.String("experiment", "all", experimentUsage())
		short      = flag.Bool("short", false, "reduced scales for a quick run")
		seed       = flag.Int64("seed", 1, "root random seed")
		out        = flag.String("out", "", "directory for CSV output (optional)")
		svg        = flag.String("svg", "", "directory for SVG chart output (optional)")
		replot     = flag.String("replot", "", "re-render SVGs from existing CSVs in this directory (skips running experiments)")
		optLimit   = flag.Duration("opt-limit", 0, "per-solve cap for the exact optimizer (default 30s, 3s with -short)")
		workers    = flag.Int("workers", 0, "worker pool size for sweeps and the exact solver's branch-and-bound (0 = GOMAXPROCS, 1 = serial; tables are identical either way except the *_s columns and fig2's bb_nodes)")
		shards     = flag.Int("shards", 0, "override the region count of the ext_scale clustered substrates (0 = per-point default)")
	)
	flag.Parse()

	if *replot != "" {
		dst := *svg
		if dst == "" {
			dst = *replot
		}
		n, err := experiments.Replot(*replot, dst)
		if err != nil {
			fmt.Fprintln(os.Stderr, "soclbench:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "[replotted %d charts into %s]\n", n, dst)
		return
	}
	opts := experiments.Options{Short: *short, Seed: *seed, OutDir: *out, OptTimeLimit: *optLimit, Workers: *workers, Shards: *shards}
	if err := run(*experiment, opts, *svg); err != nil {
		fmt.Fprintln(os.Stderr, "soclbench:", err)
		os.Exit(1)
	}
}

// selected resolves -experiment: "all" is the paper group, "ext" the
// extension group, anything else one registry ID.
func selected(which string) ([]experiments.Experiment, error) {
	group := map[string]string{"all": "paper", "ext": "ext"}[which]
	var out []experiments.Experiment
	for _, e := range experiments.Registry {
		if e.ID == which || e.Group == group {
			out = append(out, e)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("unknown experiment %q", which)
	}
	return out, nil
}

func run(which string, opts experiments.Options, svgDir string) error {
	start := time.Now()
	exps, err := selected(which)
	if err != nil {
		return err
	}
	var tables []*experiments.Table
	for _, e := range exps {
		t0 := time.Now()
		tables = append(tables, e.Run(opts)...)
		fmt.Fprintf(os.Stderr, "[%s done in %v]\n", e.ID, time.Since(t0).Round(time.Millisecond))
	}

	if err := experiments.Emit(os.Stdout, opts, tables...); err != nil {
		return err
	}
	if svgDir != "" {
		if err := experiments.WriteSVGs(svgDir, tables...); err != nil {
			return err
		}
	}
	fmt.Fprintf(os.Stderr, "[total %v]\n", time.Since(start).Round(time.Millisecond))
	return nil
}
