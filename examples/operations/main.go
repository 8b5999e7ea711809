// Operations: an operator's-eye walkthrough of the library's production
// features beyond the core solver — warm-started online re-planning with
// churn accounting, the cloud fallback under budget pressure, and
// contention re-pricing of the network. Each section prints a small report.
package main

import (
	"fmt"
	"log"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/msvc"
)

func main() {
	const seed = 11
	// The substrate, catalog, λ and budget are the paper regime's
	// (config.Paper); each section draws its own workloads with the
	// generator's defaults, deadlines included.
	paper, err := config.Paper(12, 0, seed).Build()
	if err != nil {
		log.Fatal(err)
	}

	onlineSection(paper, seed)
	cloudSection(paper, seed)
	contentionSection(paper, seed)
}

// onlineSection: six 5-minute slots of drifting demand, warm vs cold.
func onlineSection(paper *model.Instance, seed int64) {
	fmt.Println("── online re-planning (6 slots of drifting demand) ──")
	warm := core.NewOnlineSolver(core.DefaultConfig())
	cold := core.NewOnlineSolver(core.DefaultConfig())
	warmChurn, coldChurn := 0, 0
	var prevCold model.Placement
	for slot := 0; slot < 6; slot++ {
		in := instance(paper, 30, seed+int64(slot)*37)

		_, st, err := warm.Step(in)
		if err != nil {
			log.Fatal(err)
		}
		if slot > 0 {
			warmChurn += st.Started + st.Stopped
		}

		cold.Reset()
		solC, _, err := cold.Step(in)
		if err != nil {
			log.Fatal(err)
		}
		if slot > 0 {
			a, r := model.PlacementDiff(prevCold, solC.Placement)
			coldChurn += a + r
		}
		prevCold = solC.Placement
	}
	fmt.Printf("  instance churn over 5 transitions: warm=%d  cold=%d\n", warmChurn, coldChurn)
	fmt.Println("  (each churned instance is a container cold-start the warm mode avoided)")
	fmt.Println()
}

// cloudSection: what happens when the edge budget can't cover the catalog.
func cloudSection(paper *model.Instance, seed int64) {
	fmt.Println("── cloud fallback under budget pressure ──")
	in := instance(paper, 40, seed)
	cloud := model.DefaultCloudConfig()
	in.Cloud = &cloud
	for _, budget := range []float64{paper.Budget, 2500} {
		in.Budget = budget
		sol, err := core.Solve(in, core.DefaultConfig())
		if err != nil {
			log.Fatal(err)
		}
		ev := sol.Evaluation
		fmt.Printf("  budget %5.0f: edge instances=%2d  cloud-served=%2d  Σlatency=%7.1f  budget-met=%v\n",
			budget, sol.Placement.Instances(), ev.CloudServed, ev.LatencySum, sol.Stats.BudgetMet)
	}
	fmt.Println()
}

// contentionSection: re-price the chosen routes under slot-capacity sharing.
func contentionSection(paper *model.Instance, seed int64) {
	fmt.Println("── network contention re-pricing (5-minute slot) ──")
	in := instance(paper, 120, seed)
	sol, err := core.Solve(in, core.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	rep := in.EvaluateWithContention(sol.Placement, model.RouteModeOptimal, seed, model.DefaultContentionConfig())
	maxU, hot := 0.0, [2]int{}
	for key, u := range rep.Utilization {
		if u > maxU {
			maxU, hot = u, key
		}
	}
	fmt.Printf("  idle latency      %8.1f s\n", rep.LatencySum)
	fmt.Printf("  contended latency %8.1f s  (congested links: %d)\n", rep.LatencySumContended, rep.Congested)
	fmt.Printf("  hottest link      %v at %.1f%% slot utilization\n", hot, maxU*100)
}

// instance is the paper instance with users requests drawn by the
// generator's defaults.
func instance(paper *model.Instance, users int, seed int64) *model.Instance {
	w, err := msvc.GenerateWorkload(paper.Workload.Catalog, paper.Graph, msvc.DefaultWorkloadConfig(users), seed)
	if err != nil {
		log.Fatal(err)
	}
	return &model.Instance{Graph: paper.Graph, Workload: w, Lambda: paper.Lambda, Budget: paper.Budget}
}
