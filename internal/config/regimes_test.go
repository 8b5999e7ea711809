package config_test

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/config"
	"repro/internal/model"
	"repro/internal/msvc"
	"repro/internal/sim"
	"repro/internal/topology"
)

// The builders the presets replaced, kept verbatim as references: each
// preset must build exactly what its reference built, so moving the regime
// constants into one table changes no experiment's instance.

// refPaperInstance is the figures' former experiments.buildInstance.
func refPaperInstance(nodes, users int, budget float64, seed int64) *model.Instance {
	g := topology.RandomGeometric(nodes, 0.35, topology.DefaultGenConfig(), seed)
	cat := msvc.EShopCatalog(msvc.DefaultDatasetConfig(), seed)
	cfg := msvc.DefaultWorkloadConfig(users)
	cfg.DeadlineSlack = 0 // the figure sweeps measure latency, not SLOs
	w, err := msvc.GenerateWorkload(cat, g, cfg, seed)
	if err != nil {
		panic(err) // static configuration; cannot fail for valid sizes
	}
	return &model.Instance{Graph: g, Workload: w, Lambda: 0.5, Budget: budget}
}

// refDatasetInstance is ext_datasets' former inline builder.
func refDatasetInstance(name string, nodes, users int, seed int64) *model.Instance {
	g := topology.RandomGeometric(nodes, 0.35, topology.DefaultGenConfig(), seed)
	cat, err := msvc.CatalogByName(name, msvc.DefaultDatasetConfig(), seed)
	if err != nil {
		panic(err)
	}
	wcfg := msvc.DefaultWorkloadConfig(users)
	wcfg.DeadlineSlack = 0
	w, err := msvc.GenerateWorkload(cat, g, wcfg, seed)
	if err != nil {
		panic(err)
	}
	return &model.Instance{Graph: g, Workload: w, Lambda: 0.5, Budget: 8000}
}

// refSimConfig is the former body of sim.DefaultConfig.
func refSimConfig(g *topology.Graph, cat *msvc.Catalog, users int, seed int64) sim.Config {
	w := msvc.DefaultWorkloadConfig(0)
	w.DeadlineSlack = 0 // the trace experiment records latency, not SLOs
	w.EdgeDataMin, w.EdgeDataMax = 1, 15
	w.InDataMin, w.InDataMax = 5, 25
	w.OutDataMin, w.OutDataMax = 5, 25
	return sim.Config{
		Graph: g, Catalog: cat,
		NumUsers: users, SlotMinutes: 5, DurationMinutes: 240,
		MeanInterarrival: 5, MoveProb: 0.3,
		Lambda: 0.05, Budget: 8000,
		Workload: w,
		Seed:     seed,
	}
}

// refClusteredInstance is ext_scale's former buildClusteredInstance.
func refClusteredInstance(users, regions, perRegion int, seed int64) (*model.Instance, *topology.ShardPlan, error) {
	g, regionNodes := topology.Clustered(topology.DefaultClusterConfig(regions, perRegion), seed)
	cat := msvc.EShopCatalog(msvc.DefaultDatasetConfig(), seed)
	wcfg := msvc.DefaultWorkloadConfig(users)
	wcfg.DeadlineSlack = 0
	wcfg.Hotspot = 0
	w, err := msvc.GenerateWorkload(cat, g, wcfg, seed)
	if err != nil {
		return nil, nil, err
	}
	kappaTotal := 0.0
	for i := 0; i < cat.Len(); i++ {
		kappaTotal += cat.Service(i).DeployCost
	}
	in := &model.Instance{Graph: g, Workload: w, Lambda: 0.05, Budget: 1.5 * float64(regions) * kappaTotal}
	plan, err := topology.PlanShards(g, regionNodes)
	if err != nil {
		return nil, nil, err
	}
	return in, plan, nil
}

func TestPaperMatchesReference(t *testing.T) {
	sizes := [][2]int{
		{10, 80}, {10, 120}, {10, 160}, {10, 200}, // Fig. 8
		{8, 20}, {8, 40}, // Fig. 8 -short
		{5, 10}, {10, 40}, {15, 30}, // Figs. 2 and 7, the socl default
	}
	for _, sz := range sizes {
		for _, seed := range []int64{1, 2, 1234567} {
			got := config.Paper(sz[0], sz[1], seed).MustBuild()
			if want := refPaperInstance(sz[0], sz[1], 8000, seed); !reflect.DeepEqual(got, want) {
				t.Errorf("Paper(%d, %d, %d) differs from the reference instance", sz[0], sz[1], seed)
			}
		}
	}
	for _, name := range msvc.DatasetNames() {
		sc := config.Paper(10, 60, 3)
		sc.Catalog.Kind = name
		if got, want := sc.MustBuild(), refDatasetInstance(name, 10, 60, 3); !reflect.DeepEqual(got, want) {
			t.Errorf("Paper with catalog %s differs from ext_datasets' reference instance", name)
		}
	}
}

func TestTestbedMatchesReference(t *testing.T) {
	for _, tc := range []struct {
		nodes, users int
		seed         int64
	}{{8, 50, 1}, {8, 70, 2}, {16, 50, 3}, {12, 30, 4}} {
		g := topology.RandomGeometric(tc.nodes, 0.35, topology.DefaultGenConfig(), tc.seed)
		cat := msvc.EShopCatalog(msvc.DefaultDatasetConfig(), tc.seed)
		got := sim.DefaultConfig(g, cat, tc.users, tc.seed)
		if want := refSimConfig(g, cat, tc.users, tc.seed); !reflect.DeepEqual(got, want) {
			t.Errorf("sim.DefaultConfig at %d nodes / %d users / seed %d differs from the reference:\n got  %+v\n want %+v",
				tc.nodes, tc.users, tc.seed, got, want)
		}
	}
}

func TestClusteredMatchesReference(t *testing.T) {
	for _, tc := range []struct {
		users, regions, perRegion int
		seed                      int64
	}{{60, 4, 6, 1}, {240, 4, 8, 1}, {1000, 9, 12, 7}} {
		t.Run(fmt.Sprintf("%d-users-%dx%d", tc.users, tc.regions, tc.perRegion), func(t *testing.T) {
			in, plan, err := config.Clustered(tc.users, tc.regions, tc.perRegion, tc.seed)
			if err != nil {
				t.Fatal(err)
			}
			wantIn, wantPlan, err := refClusteredInstance(tc.users, tc.regions, tc.perRegion, tc.seed)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(in, wantIn) {
				t.Error("instance differs from the reference")
			}
			if !reflect.DeepEqual(plan, wantPlan) {
				t.Error("shard plan differs from the reference")
			}
		})
	}
}
