// Quickstart: build a small edge network, generate an eShopOnContainers
// workload, run the SoCL solver, and inspect the solution — the minimal
// end-to-end use of the library's public API.
package main

import (
	"fmt"
	"log"

	"repro/internal/config"
	"repro/internal/core"
)

func main() {
	const seed = 42

	// 1–3. Instance, in the paper regime (config.Paper): 8 edge servers
	//    with paper-ranged capacities ([5,20] GFLOP/s compute, [4,8]
	//    storage, [20,80] GB/s links), the eShopOnContainers microservice
	//    catalog, 20 users issuing dependency-chain requests, and an
	//    objective that balances deployment cost against completion time
	//    under a deployment budget.
	sc := config.Paper(8, 20, seed)
	sc.Topology.Radius = 0.4
	in, err := sc.Build()
	if err != nil {
		log.Fatal(err)
	}
	cat, w := in.Workload.Catalog, in.Workload

	// 4. Solve with SoCL.
	sol, err := core.Solve(in, core.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}

	ev := sol.Evaluation
	fmt.Printf("objective  %.2f   (cost %.2f + latency %.2f, λ=%.1f)\n",
		ev.Objective, ev.Cost, ev.LatencySum, in.Lambda)
	fmt.Printf("instances  %d deployed (pre-provisioning had %d; %d combined away)\n",
		sol.Stats.FinalInstances, sol.Stats.PreprovInstances, sol.Stats.Combined)
	fmt.Printf("runtime    %v (partition %v, pre-provision %v, combine %v)\n",
		sol.Stats.Total, sol.Stats.PartitionTime, sol.Stats.PreprovTime, sol.Stats.CombineTime)
	fmt.Printf("feasible   %v\n\n", ev.Feasible())

	fmt.Println("placement:")
	for i := 0; i < in.M(); i++ {
		if nodes := sol.Placement.NodesOf(i); len(nodes) > 0 {
			fmt.Printf("  %-20s → edge servers %v\n", cat.Service(i).Name, nodes)
		}
	}

	fmt.Println("\nsample routes (request: chain → serving nodes):")
	for h := 0; h < 3 && h < len(w.Requests); h++ {
		req := w.Requests[h]
		names := make([]string, len(req.Chain))
		for i, s := range req.Chain {
			names[i] = cat.Service(s).Name
		}
		fmt.Printf("  u%d@node%d: %v → %v  (%.3f s)\n",
			req.ID, req.Home, names, ev.Routes[h].Nodes, ev.Latencies[h])
	}
}
