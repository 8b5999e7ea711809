package main

import (
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/config"
)

// For every -topo, the flags and a JSON scenario naming the same network
// must build the same instance: ringhubs used to split 10 nodes 7 + 3 on
// the flag path and 8 + 2 in a scenario. With no flags set, the command
// builds the paper regime at 10 nodes, 40 users and seed 1.
func TestFlagsBuildTheScenarioInstance(t *testing.T) {
	fromDefaults, err := flagScenario(*nodes, *users, *budget, *lambda, *seed, *topo, *dataset).Build()
	if err != nil {
		t.Fatal(err)
	}
	paper, err := config.Paper(10, 40, 1).Build()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fromDefaults, paper) {
		t.Error("the flag defaults build another instance than config.Paper(10, 40, 1)")
	}
	for _, tc := range []struct{ topo, spec string }{
		{"geometric", `{"kind": "geometric", "nodes": 10}`},
		{"stadium", `{"kind": "stadium", "nodes": 10}`},
		{"ringhubs", `{"kind": "ringhubs", "nodes": 10}`},
		{"grid", `{"kind": "grid", "rows": 4, "cols": 4}`},
	} {
		fromFlags, err := flagScenario(*nodes, *users, *budget, *lambda, *seed, tc.topo, *dataset).Build()
		if err != nil {
			t.Fatalf("-topo %s: %v", tc.topo, err)
		}
		sc := config.Default()
		sc.Topology = config.TopologySpec{}
		if err := json.Unmarshal([]byte(tc.spec), &sc.Topology); err != nil {
			t.Fatal(err)
		}
		fromScenario, err := sc.Build()
		if err != nil {
			t.Fatalf("scenario %s: %v", tc.spec, err)
		}
		if !reflect.DeepEqual(fromFlags, fromScenario) {
			t.Errorf("-topo %s -nodes 10 builds another instance than the scenario topology %s", tc.topo, tc.spec)
		}
	}
}
