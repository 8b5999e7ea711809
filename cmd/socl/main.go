// Command socl runs the SoCL microservice provisioning framework on a
// single generated scenario and prints the resulting placement, routing
// quality, and per-stage statistics.
//
// Usage:
//
//	socl -nodes 10 -users 40 -seed 1 -algo socl
//
// Algorithms: socl (default), rp, jdr, gcog, opt. The flags describe a
// config.Scenario and take their defaults from config.Default (the paper
// regime), so a flag-built instance is the one the equivalent -scenario file
// builds.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/baselines"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/ilp"
	"repro/internal/model"
	"repro/internal/opt"
)

// def is the scenario the flags describe by default.
var def = config.Default()

var (
	scenario = flag.String("scenario", "", "JSON scenario file (overrides -nodes/-users/-topo/...)")
	writeScn = flag.String("write-scenario", "", "write the default scenario JSON to this path and exit")
	nodes    = flag.Int("nodes", def.Topology.Nodes, "number of edge servers")
	users    = flag.Int("users", def.Workload.NumUsers, "number of user requests")
	budget   = flag.Float64("budget", def.Budget, "deployment budget 𝒦^max")
	lambda   = flag.Float64("lambda", def.Lambda, "objective weight λ (cost vs latency)")
	seed     = flag.Int64("seed", def.Seed, "root random seed")
	algo     = flag.String("algo", "socl", "algorithm: socl | rp | jdr | gcog | opt")
	topo     = flag.String("topo", def.Topology.Kind, "topology: geometric | stadium | ringhubs | grid")
	dataset  = flag.String("dataset", def.Catalog.Kind, "application dataset: eshop | sock-shop | piggymetrics | hotel-reservation")
	optLimit = flag.Duration("opt-limit", 30*time.Second, "time cap for -algo opt")
	verbose  = flag.Bool("v", false, "print the full placement matrix")
	lpFile   = flag.String("export-lp", "", "write the instance's ILP in CPLEX LP format to this file (for external solvers) and exit")
)

func main() {
	flag.Parse()

	if *writeScn != "" {
		if err := def.Save(*writeScn); err != nil {
			fmt.Fprintln(os.Stderr, "socl:", err)
			os.Exit(1)
		}
		fmt.Println("wrote default scenario to", *writeScn)
		return
	}
	sc := flagScenario(*nodes, *users, *budget, *lambda, *seed, *topo, *dataset)
	if err := run(sc, *scenario, *lpFile, *algo, *optLimit, *verbose); err != nil {
		fmt.Fprintln(os.Stderr, "socl:", err)
		os.Exit(1)
	}
}

// flagScenario is the scenario the command-line flags describe: the default
// scenario with its seed, λ, budget, topology, catalog and user count
// replaced. A grid gets rows = cols = ⌈√nodes⌉.
func flagScenario(nodes, users int, budget, lambda float64, seed int64, topo, dataset string) *config.Scenario {
	sc := config.Default()
	sc.Name = "flags"
	sc.Seed, sc.Lambda, sc.Budget = seed, lambda, budget
	sc.Topology.Kind, sc.Topology.Nodes = topo, nodes
	if topo == "grid" {
		side := 1
		for side*side < nodes {
			side++
		}
		sc.Topology.Rows, sc.Topology.Cols = side, side
	}
	sc.Catalog.Kind = dataset
	sc.Workload.NumUsers = users
	return sc
}

// run builds the instance — from the scenario file when one is given, else
// from the flags' scenario — and exports its ILP or solves it.
func run(sc *config.Scenario, scenarioPath, lpPath, algo string, optLimit time.Duration, verbose bool) error {
	if scenarioPath != "" {
		var err error
		if sc, err = config.Load(scenarioPath); err != nil {
			return err
		}
	}
	in, err := sc.Build()
	if err != nil {
		return err
	}
	if lpPath != "" {
		return exportLP(in, lpPath)
	}
	fmt.Printf("scenario=%s (%s topology, %d nodes, %s catalog) users=%d budget=%.0f λ=%.2f seed=%d\n",
		sc.Name, sc.Topology.Kind, in.V(), sc.Catalog.Kind, len(in.Workload.Requests), sc.Budget, sc.Lambda, sc.Seed)
	return solveAndReport(in, algo, sc.Seed, optLimit, verbose)
}

// exportLP writes the instance's Definition-4 ILP in CPLEX LP format, so
// users with Gurobi/CPLEX/SCIP can solve the exact model the paper's OPT
// baseline uses.
func exportLP(in *model.Instance, path string) error {
	m, _ := ilp.BuildSoCLBounded(in)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := ilp.WriteBoundedLP(f, m); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("wrote ILP (%d variables, %d constraints) to %s\n",
		m.Prob.NumVars, len(m.Prob.Constraints), path)
	return nil
}

// solveAndReport runs the chosen algorithm on in and prints the outcome.
func solveAndReport(in *model.Instance, algo string, seed int64, optLimit time.Duration, verbose bool) error {
	var placement model.Placement
	start := time.Now()
	switch algo {
	case "socl":
		sol, err := core.Solve(in, core.DefaultConfig())
		if err != nil {
			return err
		}
		placement = sol.Placement
		defer func() {
			fmt.Printf("stages: partition=%v preprov=%v combine=%v\n",
				sol.Stats.PartitionTime, sol.Stats.PreprovTime, sol.Stats.CombineTime)
			fmt.Printf("combine: removed=%d rolled-back=%d migrated=%d budget-met=%v\n",
				sol.Stats.Combined, sol.Stats.RolledBack, sol.Stats.Migrated, sol.Stats.BudgetMet)
		}()
	case "rp":
		placement = baselines.RP(in, seed)
	case "jdr":
		placement = baselines.JDR(in)
	case "gcog":
		res := baselines.GCOG(in)
		placement = res.Placement
		fmt.Printf("gcog: rounds=%d exact-evaluations=%d\n", res.Rounds, res.Evals)
	case "opt":
		res, err := opt.Solve(in, opt.Options{TimeLimit: optLimit})
		if err != nil {
			return err
		}
		if res.Status == opt.Infeasible || res.Status == opt.NoSolution {
			return fmt.Errorf("optimizer: %v after %v (%d nodes)", res.Status, res.Elapsed, res.Nodes)
		}
		placement = res.Placement
		fmt.Printf("opt: status=%v bb-nodes=%d star-objective=%.2f\n", res.Status, res.Nodes, res.StarObjective)
	default:
		return fmt.Errorf("unknown algorithm %q", algo)
	}
	elapsed := time.Since(start)

	ev := in.Evaluate(placement)
	fmt.Printf("algorithm=%s\n", algo)
	fmt.Printf("objective=%.2f cost=%.2f latency-sum=%.2f instances=%d runtime=%v\n",
		ev.Objective, ev.Cost, ev.LatencySum, placement.Instances(), elapsed)
	fmt.Printf("feasible=%v (missing=%d deadline-violations=%d storage-violation-node=%d over-budget=%v)\n",
		ev.Feasible(), ev.MissingInstances, ev.DeadlineViolated, ev.StorageViolatedAt, ev.OverBudget)

	if verbose {
		fmt.Println("placement (service: nodes):")
		for i := 0; i < in.M(); i++ {
			nodesOf := placement.NodesOf(i)
			if len(nodesOf) == 0 {
				continue
			}
			fmt.Printf("  %-20s %v\n", in.Workload.Catalog.Service(i).Name, nodesOf)
		}
	}
	return nil
}
