package model

import (
	"reflect"
	"testing"

	"repro/internal/msvc"
	"repro/internal/topology"
)

// The halo view WithHalo builds on a solve's view is the view
// NewShardInstance slices from the concatenated lists, field by field; it
// shares the solve's requests instead of copying them, leaves the solve's
// view as it was, and a second halo view of the same solve copies.
func TestWithHaloMatchesNewShardInstance(t *testing.T) {
	g := topology.RandomGeometric(12, 0.4, topology.DefaultGenConfig(), 3)
	cat := msvc.EShopCatalog(msvc.DefaultDatasetConfig(), 3)
	w, err := msvc.GenerateWorkload(cat, g, msvc.DefaultWorkloadConfig(200), 3)
	if err != nil {
		t.Fatal(err)
	}
	in := &Instance{Graph: g, Workload: w, Lambda: 0.5, Budget: 1e4}
	own, halo := []int{0, 1, 2, 3, 4, 5}, []int{7, 9}
	var ownReqs, haloReqs []int
	for h, r := range w.Requests {
		switch {
		case r.Home <= 5:
			ownReqs = append(ownReqs, h)
		case r.Home == 7 || r.Home == 9:
			haloReqs = append(haloReqs, h)
		}
	}
	if len(ownReqs) == 0 || len(haloReqs) < 2 {
		t.Fatalf("fixture has %d owned and %d halo requests", len(ownReqs), len(haloReqs))
	}
	solve, err := NewShardInstanceRoom(in, own, len(own), ownReqs, len(ownReqs), len(haloReqs))
	if err != nil {
		t.Fatal(err)
	}
	before := append([]msvc.Request(nil), solve.Sub.Workload.Requests...)
	hv, err := solve.WithHalo(in, halo, haloReqs)
	if err != nil {
		t.Fatal(err)
	}
	want, err := NewShardInstance(in, append(append([]int(nil), own...), halo...), len(own),
		append(append([]int(nil), ownReqs...), haloReqs...), len(ownReqs))
	if err != nil {
		t.Fatal(err)
	}
	same := func(label string, got *ShardInstance) {
		t.Helper()
		if !reflect.DeepEqual(got.Nodes, want.Nodes) || !reflect.DeepEqual(got.Reqs, want.Reqs) ||
			got.OwnNodes != want.OwnNodes || got.OwnReqs != want.OwnReqs {
			t.Fatalf("%s: maps differ: nodes %v reqs %d/%d, want %v %d/%d", label,
				got.Nodes, got.OwnReqs, len(got.Reqs), want.Nodes, want.OwnReqs, len(want.Reqs))
		}
		if !reflect.DeepEqual(got.Sub.Workload.Requests, want.Sub.Workload.Requests) {
			t.Fatalf("%s: requests differ from NewShardInstance's", label)
		}
		if !reflect.DeepEqual(got.Sub.Graph, want.Sub.Graph) {
			t.Fatalf("%s: graph differs from NewShardInstance's", label)
		}
	}
	same("halo view", hv)
	if &hv.Sub.Workload.Requests[0] != &solve.Sub.Workload.Requests[0] {
		t.Fatal("the halo view copied the solve's requests")
	}
	if !reflect.DeepEqual(solve.Sub.Workload.Requests, before) || len(solve.Reqs) != len(ownReqs) {
		t.Fatal("WithHalo changed the solve's view")
	}
	if _, err := solve.WithHalo(in, halo, haloReqs[1:]); err != nil {
		t.Fatal(err)
	}
	same("halo view after a second WithHalo", hv)
	if _, err := hv.WithHalo(in, halo, haloReqs); err == nil {
		t.Fatal("WithHalo of a halo view succeeded")
	}
}
