// Optgap: quantify SoCL's optimality gap against the exact branch-and-bound
// optimizer (the repository's Gurobi substitute) on instances small enough
// to solve exactly, and show the runtime cliff that makes exact solving
// impractical at scale — the paper's Fig. 2 / Fig. 7 story in one program.
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/opt"
)

func main() {
	fmt.Printf("%-14s %10s %10s %8s %12s %12s %10s\n",
		"scale", "OPT obj", "SoCL obj", "gap%", "OPT time", "SoCL time", "OPT status")
	for _, c := range []struct{ v, u int }{
		{5, 10}, {8, 10}, {10, 10}, {10, 20}, {10, 30}, {10, 40},
	} {
		in, err := config.Paper(c.v, c.u, 1).Build()
		if err != nil {
			log.Fatal(err)
		}

		t0 := time.Now()
		sol, err := core.Solve(in, core.DefaultConfig())
		if err != nil {
			log.Fatal(err)
		}
		soclTime := time.Since(t0)

		// Warm-start the exact search with SoCL's placement (a standard
		// MIP-start) and cap it at 10 s per solve.
		res, err := opt.Solve(in, opt.Options{TimeLimit: 10 * time.Second, WarmStart: &sol.Placement})
		if err != nil {
			log.Fatal(err)
		}
		optObj := in.Evaluate(res.Placement).Objective
		soclObj := sol.Evaluation.Objective
		gap := (soclObj - optObj) / optObj * 100
		status := res.Status.String()
		if res.Status != opt.Optimal {
			status += "(cap)"
		}
		fmt.Printf("V=%-3d U=%-6d %10.1f %10.1f %8.2f %12v %12v %10s\n",
			c.v, c.u, optObj, soclObj, gap, res.Elapsed.Round(time.Microsecond),
			soclTime.Round(time.Microsecond), status)
	}
	fmt.Println("\nNote: the paper reports optimality gaps below 9.9% with SoCL running")
	fmt.Println("up to two orders of magnitude faster; capped rows show the exact")
	fmt.Println("solver's exponential blow-up (its incumbent is reported).")
}
