package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
)

// exactTol is the relative slack a deterministic metric gets: enough for a
// different summation order, nothing else.
const exactTol = 1e-9

// verdict of one (workload, metric) row.
const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
)

// judge compares a metric's new run with its old one. worse is the share of
// the old median by which the new one is worse (negative when better).
//
// A deterministic metric (bound 0) regresses on any change for the worse
// beyond exactTol. A timed metric regresses when worse exceeds its bound;
// but when either run's own uncertainty is wider than the bound the
// comparison cannot tell a change from noise and is unresolved — unless every
// pass of the new run reads better than every pass of the old, which no
// amount of noise explains.
func judge(d metricDef, old, cur Metric) (verdict string, worse, spread float64) {
	sign := 1.0 // lower is better: worse when cur > old
	if d.better == higher {
		sign = -1
	}
	switch {
	case old.Median != 0:
		worse = sign * (cur.Median - old.Median) / math.Abs(old.Median)
	case cur.Median != 0:
		worse = sign * math.Inf(1) * cur.Median
	}
	if d.bound == 0 {
		if worse > exactTol {
			return verdictRegressed, worse, 0
		}
		return verdictOK, worse, 0
	}
	spread = math.Max(medianUncertainty(old.Passes), medianUncertainty(cur.Passes))
	if spread > d.bound {
		if allBetter(d, old.Passes, cur.Passes) {
			return verdictOK, worse, spread
		}
		return verdictUnresolved, worse, spread
	}
	if worse > d.bound {
		return verdictRegressed, worse, spread
	}
	return verdictOK, worse, spread
}

// medianUncertainty is how far the median of these passes can be expected to
// sit from the median of another run's: the distance between the passes'
// quartiles over their median, divided by √passes (the standard error of a
// median of n samples is close to their quartile distance over √n). It is why
// measuring longer resolves smaller changes.
func medianUncertainty(passes []float64) float64 {
	if len(passes) == 0 {
		return 0
	}
	return quartileSpread(passes) / math.Sqrt(float64(len(passes)))
}

// allBetter reports whether every new pass beats every old pass.
func allBetter(d metricDef, old, cur []float64) bool {
	if len(old) == 0 || len(cur) == 0 {
		return false
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range old {
		lo, hi = math.Min(lo, v), math.Max(hi, v)
	}
	for _, v := range cur {
		if d.better == lower && v >= lo || d.better == higher && v <= hi {
			return false
		}
	}
	return true
}

func readResultFile(path string) (*ResultFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf ResultFile
	if err := json.Unmarshal(b, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rf, nil
}

// cmdCompare prints one row per (workload, end-to-end metric) of two result
// files and fails on any regression — a higher fail_frac included, whatever
// else improved.
func cmdCompare(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: bench compare old.json new.json")
	}
	old, err := readResultFile(args[0])
	if err != nil {
		return err
	}
	cur, err := readResultFile(args[1])
	if err != nil {
		return err
	}
	if old.Seed != cur.Seed {
		fmt.Printf("note: seeds differ (%d vs %d): deterministic metrics are not comparable\n", old.Seed, cur.Seed)
	}
	fmt.Printf("old %s (%s, cpus %d, workers %d)   new %s (%s, cpus %d, workers %d)\n",
		old.Commit, old.Date, old.CPUs, old.Workers, cur.Commit, cur.Date, cur.CPUs, cur.Workers)
	fmt.Printf("%-14s %-18s %-6s %14s %14s %9s %8s %7s  %s\n",
		"workload", "metric", "unit", "old median", "new median", "worse by", "spread", "bound", "verdict")
	regressed, unresolved := compareFiles(old, cur, func(w string, d metricDef, o, c Metric, verdict string, worse, spread float64) {
		bound := "exact"
		if d.bound > 0 {
			bound = fmt.Sprintf("%.0f%%", d.bound*100)
		}
		fmt.Printf("%-14s %-18s %-6s %14.6g %14.6g %+8.2f%% %7.2f%% %7s  %s\n",
			w, d.name, d.unit, o.Median, c.Median, worse*100, spread*100, bound, verdict)
	})
	fmt.Printf("%d regressed, %d unresolved\n", regressed, unresolved)
	if regressed > 0 {
		return fmt.Errorf("%d metric(s) regressed", regressed)
	}
	return nil
}

// compareFiles judges every (workload, metric) pair present in both files.
func compareFiles(old, cur *ResultFile, row func(workload string, d metricDef, o, c Metric, verdict string, worse, spread float64)) (regressed, unresolved int) {
	for _, cw := range cur.Workloads {
		for _, ow := range old.Workloads {
			if ow.Name != cw.Name {
				continue
			}
			for _, cm := range cw.EndToEnd {
				d, known := findDef(endToEnd, cm.Name)
				for _, om := range ow.EndToEnd {
					if !known || om.Name != cm.Name {
						continue
					}
					verdict, worse, spread := judge(d, om, cm)
					switch verdict {
					case verdictRegressed:
						regressed++
					case verdictUnresolved:
						unresolved++
					}
					row(cw.Name, d, om, cm, verdict, worse, spread)
				}
			}
		}
	}
	return regressed, unresolved
}
