// Stadium: the paper's motivating scenario — base stations around a packed
// venue (Section V sets them near the National Stadium, Beijing), a crowd
// of mobile users issuing microservice chains, and a 2-hour time-slotted
// run comparing RP, JDR and SoCL under mobility. This is the workload the
// introduction's "provisioning-adaption" challenge describes: trigger
// locations drift as users move, and the placement must follow.
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/msvc"
	"repro/internal/sim"
	"repro/internal/topology"
)

func main() {
	const seed = 7

	// Two concentric rings of base stations around the venue plus radial
	// backhaul — the Stadium generator mirrors the paper's setting.
	g := topology.Stadium(14, topology.DefaultGenConfig(), seed)
	cat := msvc.EShopCatalog(msvc.DefaultDatasetConfig(), seed)

	fmt.Println("stadium scenario: 14 base stations, 40 mobile users, 2-hour trace")
	fmt.Println("slot = 5 min, users re-issue requests every ~5 min and hop cells with p=0.3")
	fmt.Println()
	fmt.Printf("%-8s %12s %12s %12s %12s\n", "algo", "mean delay", "p50 delay", "max delay", "Σcost")

	for _, algo := range []sim.Algorithm{
		sim.RP{Seed: seed},
		sim.JDR{},
		sim.SoCL{Config: core.DefaultConfig()},
	} {
		cfg := sim.DefaultConfig(g, cat, 40, seed)
		cfg.DurationMinutes = 120
		res, err := sim.Run(cfg, algo)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-8s %12.3f %12.3f %12.3f %12.0f\n",
			res.Algorithm, res.MeanDelay(), res.MedianDelay(), res.MaxDelay(), res.TotalCost())
	}

	fmt.Println("\nper-slot average delay (SoCL):")
	cfg := sim.DefaultConfig(g, cat, 40, seed)
	cfg.DurationMinutes = 60
	res, err := sim.Run(cfg, sim.SoCL{Config: core.DefaultConfig()})
	if err != nil {
		log.Fatal(err)
	}
	for _, s := range res.Records {
		bar := ""
		for i := 0; i < int(s.AvgDelay*8) && i < 60; i++ {
			bar += "#"
		}
		fmt.Printf("  t=%3.0fmin %6.3fs |%s\n", float64(s.Epoch)*cfg.SlotMinutes, s.AvgDelay, bar)
	}
}
