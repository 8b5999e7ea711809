// Package core is the public façade of the SoCL framework — the paper's
// primary contribution. It orchestrates the three stages of Section IV:
//
//  1. region-based initial partitioning (package partition, Algorithm 1),
//  2. instance pre-provisioning (package preprov, Algorithm 2), and
//  3. multi-scale combination (package combine, Algorithms 3–5),
//
// and returns the provisioning decision 𝒳 together with its exact
// evaluation (optimal per-request routing, cost, latency, objective) and
// per-stage timing statistics.
//
// Typical use:
//
//	in := config.Paper(10, 40, seed).MustBuild() // or any model.Instance
//	sol, err := core.Solve(in, core.DefaultConfig())
//	if err != nil { ... }
//	fmt.Println(sol.Evaluation.Objective)
package core

import (
	"time"

	"repro/internal/combine"
	"repro/internal/model"
	"repro/internal/partition"
	"repro/internal/preprov"
)

// Config bundles the hyper-parameters of all three stages.
type Config struct {
	Partition partition.Config
	Combine   combine.Config
}

// DefaultConfig returns the paper-aligned defaults: auto ξ at the median
// virtual-link speed, ω = 0.25, Θ = 1.
func DefaultConfig() Config {
	return Config{
		Partition: partition.DefaultConfig(),
		Combine:   combine.DefaultConfig(),
	}
}

// Stats reports per-stage wall-clock times and combination counters.
type Stats struct {
	PartitionTime time.Duration
	PreprovTime   time.Duration
	CombineTime   time.Duration
	Total         time.Duration

	PreprovInstances int  // instances after Algorithm 2
	FinalInstances   int  // instances in 𝒳
	Combined         int  // instances removed by Algorithm 3
	RolledBack       int  // deadline roll-backs
	Migrated         int  // storage migrations
	BudgetMet        bool // parallel phase reached Σ𝒦 ≤ 𝒦^max

	// Incremental routing-engine telemetry (combine.Result's): the combine
	// evaluator's Hits and Recomputed, counted per refresh — requests found
	// with a still-valid route vs re-routed.
	RouteCacheHits  int
	RouteRecomputed int
}

// Solution is the complete output of a SoCL run.
type Solution struct {
	Placement  model.Placement
	Evaluation *model.Evaluation
	Stats      Stats

	// Intermediate artifacts, exposed for inspection and experiments.
	Partition *partition.Result
	Preprov   *preprov.Result
}

// Solve runs the full SoCL pipeline on the instance.
func Solve(in *model.Instance, cfg Config) (*Solution, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	return solve(in, cfg, nil), nil
}

// solve is the one pipeline: partition → pre-provision → combine → evaluate.
// A non-nil warm is the previous slot's placement (OnlineSolver.Step): its
// instances of services the current workload still uses are unioned into the
// fresh pre-provisioning, and the combination stage — biased to keep warm
// instances — then trims the union under the current budget, so a stale
// instance survives only if it still pays for itself.
func solve(in *model.Instance, cfg Config, warm *model.Placement) *Solution {
	sol := &Solution{}
	start := time.Now()

	t0 := time.Now()
	sol.Partition = partition.Build(in, cfg.Partition)
	sol.Stats.PartitionTime = time.Since(t0)

	t1 := time.Now()
	sol.Preprov = preprov.Run(in, sol.Partition)
	sol.Stats.PreprovTime = time.Since(t1)

	pre, ccfg := sol.Preprov.Placement, cfg.Combine
	if warm != nil {
		pre = pre.Clone()
		used := make(map[int]bool)
		for _, svc := range sol.Partition.Index.ServicesUsed() {
			used[svc] = true
		}
		for i := range warm.X {
			if !used[i] {
				continue
			}
			for k, on := range warm.X[i] {
				if on {
					pre.Set(i, k, true)
				}
			}
		}
		// Warm instances resist removal (fewer container cold-starts).
		ccfg.Warm = *warm
	}
	sol.Stats.PreprovInstances = pre.Instances()

	t2 := time.Now()
	comb := combine.Run(in, sol.Partition, pre, ccfg)
	sol.Stats.CombineTime = time.Since(t2)

	sol.Placement = comb.Placement
	sol.Stats.FinalInstances = comb.Placement.Instances()
	sol.Stats.Combined = comb.Combined
	sol.Stats.RolledBack = comb.RolledBack
	sol.Stats.Migrated = comb.Migrated
	sol.Stats.BudgetMet = comb.BudgetMet
	sol.Stats.RouteCacheHits = comb.RouteCacheHits
	sol.Stats.RouteRecomputed = comb.RouteRecomputed
	sol.Stats.Total = time.Since(start)

	sol.Evaluation = in.Evaluate(sol.Placement)
	return sol
}
