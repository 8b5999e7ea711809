// Package config defines a JSON scenario format for SoCL experiments so
// that instances — topology, microservice catalog, workload, and objective
// parameters — can be stored, shared, and replayed outside Go code. The
// cmd/socl CLI accepts a scenario file via -scenario.
//
// It also holds the evaluation regimes (regimes.go): λ, the budget, the
// deadline slack, the hotspot setting and the data-size ranges of every
// experiment are defined there once.
package config

import (
	"encoding/json"
	"fmt"
	"os"

	"repro/internal/model"
	"repro/internal/msvc"
	"repro/internal/topology"
)

// Scenario is the root document.
type Scenario struct {
	Name   string  `json:"name"`
	Seed   int64   `json:"seed"`
	Lambda float64 `json:"lambda"`
	Budget float64 `json:"budget"`

	Topology TopologySpec        `json:"topology"`
	Catalog  CatalogSpec         `json:"catalog"`
	Workload msvc.WorkloadConfig `json:"workload"`
}

// TopologySpec selects a generator or an explicit node/link list.
type TopologySpec struct {
	// Kind: "geometric", "stadium", "ringhubs", "grid", or "explicit".
	Kind   string  `json:"kind"`
	Nodes  int     `json:"nodes,omitempty"`
	Radius float64 `json:"radius,omitempty"` // geometric
	Rows   int     `json:"rows,omitempty"`   // grid
	Cols   int     `json:"cols,omitempty"`   // grid
	Hubs   int     `json:"hubs,omitempty"`   // ringhubs

	// Gen overrides the default capacity/bandwidth ranges when non-nil.
	Gen *GenRanges `json:"gen,omitempty"`

	// Explicit topology (Kind == "explicit").
	NodeList []NodeSpec `json:"node_list,omitempty"`
	LinkList []LinkSpec `json:"link_list,omitempty"`
}

// GenRanges mirrors topology.GenConfig for JSON.
type GenRanges struct {
	ComputeMin float64 `json:"compute_min"`
	ComputeMax float64 `json:"compute_max"`
	StorageMin float64 `json:"storage_min"`
	StorageMax float64 `json:"storage_max"`
	RateMin    float64 `json:"rate_min"`
	RateMax    float64 `json:"rate_max"`
}

// NodeSpec is one explicit edge server.
type NodeSpec struct {
	X       float64 `json:"x"`
	Y       float64 `json:"y"`
	Compute float64 `json:"compute"`
	Storage float64 `json:"storage"`
}

// LinkSpec is one explicit link with its effective rate.
type LinkSpec struct {
	A    int     `json:"a"`
	B    int     `json:"b"`
	Rate float64 `json:"rate"`
}

// CatalogSpec selects an embedded application dataset, a synthetic
// catalog, or an explicit service list.
type CatalogSpec struct {
	// Kind: "eshop", "sock-shop", "piggymetrics", "hotel-reservation",
	// "synthetic", or "explicit".
	Kind        string `json:"kind"`
	NumServices int    `json:"num_services,omitempty"` // synthetic

	// Dataset overrides κ/q/φ ranges when non-nil (eshop & synthetic).
	Dataset *msvc.DatasetConfig `json:"dataset,omitempty"`

	// Explicit catalog (Kind == "explicit").
	Services []ServiceSpec `json:"services,omitempty"`
	Flows    [][]string    `json:"flows,omitempty"`
}

// ServiceSpec is one explicit microservice.
type ServiceSpec struct {
	Name       string  `json:"name"`
	DeployCost float64 `json:"deploy_cost"`
	Compute    float64 `json:"compute"`
	Storage    float64 `json:"storage"`
}

// Load reads and validates a scenario from a JSON file.
func Load(path string) (*Scenario, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("config: %w", err)
	}
	var sc Scenario
	if err := json.Unmarshal(data, &sc); err != nil {
		return nil, fmt.Errorf("config: parsing %s: %w", path, err)
	}
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	return &sc, nil
}

// Save writes the scenario as indented JSON.
func (sc *Scenario) Save(path string) error {
	data, err := json.MarshalIndent(sc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// Validate checks scenario-level invariants (instance-level ones are
// re-checked by model.Instance.Validate after Build).
func (sc *Scenario) Validate() error {
	if sc.Lambda < 0 || sc.Lambda > 1 {
		return fmt.Errorf("config: lambda %v outside [0,1]", sc.Lambda)
	}
	if sc.Budget <= 0 {
		return fmt.Errorf("config: non-positive budget %v", sc.Budget)
	}
	switch sc.Topology.Kind {
	case "geometric", "stadium", "ringhubs":
		if sc.Topology.Nodes <= 0 {
			return fmt.Errorf("config: topology %q needs nodes > 0", sc.Topology.Kind)
		}
	case "grid":
		if sc.Topology.Rows <= 0 || sc.Topology.Cols <= 0 {
			return fmt.Errorf("config: grid needs rows/cols > 0")
		}
	case "explicit":
		if len(sc.Topology.NodeList) == 0 {
			return fmt.Errorf("config: explicit topology has no nodes")
		}
	default:
		return fmt.Errorf("config: unknown topology kind %q", sc.Topology.Kind)
	}
	switch sc.Catalog.Kind {
	case "eshop", "sock-shop", "piggymetrics", "hotel-reservation":
	case "synthetic":
		if sc.Catalog.NumServices < 2 {
			return fmt.Errorf("config: synthetic catalog needs num_services ≥ 2")
		}
	case "explicit":
		if len(sc.Catalog.Services) == 0 || len(sc.Catalog.Flows) == 0 {
			return fmt.Errorf("config: explicit catalog needs services and flows")
		}
	default:
		return fmt.Errorf("config: unknown catalog kind %q", sc.Catalog.Kind)
	}
	if sc.Workload.NumUsers < 0 {
		return fmt.Errorf("config: negative user count")
	}
	return nil
}

// Build materializes the scenario into a solvable instance.
func (sc *Scenario) Build() (*model.Instance, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	g, err := sc.buildTopology()
	if err != nil {
		return nil, err
	}
	cat, err := sc.buildCatalog()
	if err != nil {
		return nil, err
	}
	w, err := msvc.GenerateWorkload(cat, g, sc.Workload, sc.Seed)
	if err != nil {
		return nil, err
	}
	in := &model.Instance{Graph: g, Workload: w, Lambda: sc.Lambda, Budget: sc.Budget}
	if err := in.Validate(); err != nil {
		return nil, err
	}
	return in, nil
}

// MustBuild is Build for scenarios fixed in code (the regime presets at
// valid sizes): it panics on error.
func (sc *Scenario) MustBuild() *model.Instance {
	in, err := sc.Build()
	if err != nil {
		panic(err)
	}
	return in
}

func (sc *Scenario) buildTopology() (*topology.Graph, error) {
	gcfg := topology.DefaultGenConfig()
	if r := sc.Topology.Gen; r != nil {
		gcfg.ComputeMin, gcfg.ComputeMax = r.ComputeMin, r.ComputeMax
		gcfg.StorageMin, gcfg.StorageMax = r.StorageMin, r.StorageMax
		gcfg.RateMin, gcfg.RateMax = r.RateMin, r.RateMax
	}
	switch sc.Topology.Kind {
	case "geometric":
		radius := sc.Topology.Radius
		if radius <= 0 {
			radius = 0.35
		}
		return topology.RandomGeometric(sc.Topology.Nodes, radius, gcfg, sc.Seed), nil
	case "stadium":
		return topology.Stadium(sc.Topology.Nodes, gcfg, sc.Seed), nil
	case "ringhubs":
		hubs := sc.Topology.Hubs
		if hubs <= 0 {
			hubs = sc.Topology.Nodes / 4
		}
		if hubs < 1 {
			hubs = 1
		}
		return topology.RingHubs(sc.Topology.Nodes-hubs, hubs, gcfg, sc.Seed), nil
	case "grid":
		return topology.Grid(sc.Topology.Rows, sc.Topology.Cols, gcfg, sc.Seed), nil
	case "explicit":
		nodes := make([]topology.Node, len(sc.Topology.NodeList))
		for i, n := range sc.Topology.NodeList {
			nodes[i] = topology.Node{X: n.X, Y: n.Y, Compute: n.Compute, Storage: n.Storage}
		}
		links := make([]topology.Link, len(sc.Topology.LinkList))
		for i, l := range sc.Topology.LinkList {
			links[i] = topology.Link{A: l.A, B: l.B, Rate: l.Rate}
		}
		g, err := topology.Build(nodes, links)
		if err != nil {
			return nil, fmt.Errorf("config: %w", err)
		}
		return g, nil
	}
	return nil, fmt.Errorf("config: unknown topology kind %q", sc.Topology.Kind)
}

func (sc *Scenario) buildCatalog() (*msvc.Catalog, error) {
	dcfg := msvc.DefaultDatasetConfig()
	if r := sc.Catalog.Dataset; r != nil {
		dcfg = *r
	}
	switch sc.Catalog.Kind {
	case "eshop", "sock-shop", "piggymetrics", "hotel-reservation":
		return msvc.CatalogByName(sc.Catalog.Kind, dcfg, sc.Seed)
	case "synthetic":
		return msvc.SyntheticCatalog(sc.Catalog.NumServices, dcfg, sc.Seed), nil
	case "explicit":
		cat := msvc.NewCatalog()
		for _, s := range sc.Catalog.Services {
			if _, err := cat.Add(s.Name, s.DeployCost, s.Compute, s.Storage); err != nil {
				return nil, fmt.Errorf("config: %w", err)
			}
		}
		for fi, flow := range sc.Catalog.Flows {
			chain := make([]msvc.ServiceID, len(flow))
			for i, name := range flow {
				id, ok := cat.Lookup(name)
				if !ok {
					return nil, fmt.Errorf("config: flow %d references unknown service %q", fi, name)
				}
				chain[i] = id
			}
			if err := cat.AddFlow(chain); err != nil {
				return nil, fmt.Errorf("config: %w", err)
			}
		}
		return cat, nil
	}
	return nil, fmt.Errorf("config: unknown catalog kind %q", sc.Catalog.Kind)
}
