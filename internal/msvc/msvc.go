// Package msvc models microservices, service dependency chains, and user
// requests as defined in Section III of the SoCL paper.
//
// A Catalog holds the microservice set M = {m_i} with per-service deploy cost
// κ(m_i), compute demand q(m_i) and storage footprint φ(m_i), plus the
// service dependency graph from which request chains are sampled. The
// embedded dataset (Dataset builder in dataset.go) reproduces the
// eShopOnContainers project used in the paper's evaluation.
package msvc

import (
	"fmt"
)

// ServiceID identifies a microservice within a Catalog. IDs are dense.
type ServiceID = int

// Microservice is one m_i ∈ M.
type Microservice struct {
	ID         ServiceID
	Name       string
	DeployCost float64 // κ(m_i), cost units per deployed instance
	Compute    float64 // q(m_i), GFLOPs to process one request step
	Storage    float64 // φ(m_i), storage units per instance
}

// Catalog is the microservice set M plus the service dependency graph and
// the canonical request flows sampled by workload generation.
type Catalog struct {
	services []Microservice
	byName   map[string]ServiceID
	deps     [][]ServiceID // deps[i]: services that m_i calls
	flows    [][]ServiceID // canonical user request chains (entry → leaf)
}

// NewCatalog returns an empty catalog.
func NewCatalog() *Catalog {
	return &Catalog{byName: make(map[string]ServiceID)}
}

// Add inserts a microservice and returns its ID. Duplicate names or
// non-positive parameters return an error.
func (c *Catalog) Add(name string, deployCost, compute, storage float64) (ServiceID, error) {
	if _, dup := c.byName[name]; dup {
		return 0, fmt.Errorf("msvc: duplicate service %q", name)
	}
	if deployCost <= 0 || compute <= 0 || storage <= 0 {
		return 0, fmt.Errorf("msvc: non-positive parameter for %q (κ=%v q=%v φ=%v)", name, deployCost, compute, storage)
	}
	id := len(c.services)
	c.services = append(c.services, Microservice{
		ID: id, Name: name, DeployCost: deployCost, Compute: compute, Storage: storage,
	})
	c.byName[name] = id
	c.deps = append(c.deps, nil)
	return id, nil
}

// AddDependency records that service from calls service to.
func (c *Catalog) AddDependency(from, to ServiceID) error {
	if from < 0 || to < 0 || from >= len(c.services) || to >= len(c.services) {
		return fmt.Errorf("msvc: dependency (%d,%d) out of range", from, to)
	}
	if from == to {
		return fmt.Errorf("msvc: self-dependency on %d", from)
	}
	c.deps[from] = append(c.deps[from], to)
	return nil
}

// AddFlow registers a canonical request chain (sequence of service IDs).
// Chains must be non-empty and reference valid services; consecutive
// duplicates are rejected since a chain edge e_{m→m} is meaningless.
func (c *Catalog) AddFlow(chain []ServiceID) error {
	if len(chain) == 0 {
		return fmt.Errorf("msvc: empty flow")
	}
	for i, s := range chain {
		if s < 0 || s >= len(c.services) {
			return fmt.Errorf("msvc: flow references unknown service %d", s)
		}
		if i > 0 && chain[i-1] == s {
			return fmt.Errorf("msvc: flow has consecutive duplicate service %d", s)
		}
	}
	cp := make([]ServiceID, len(chain))
	copy(cp, chain)
	c.flows = append(c.flows, cp)
	return nil
}

// Len returns |M|.
func (c *Catalog) Len() int { return len(c.services) }

// Service returns the microservice with the given ID.
func (c *Catalog) Service(id ServiceID) Microservice { return c.services[id] }

// Services returns a copy of the service slice.
func (c *Catalog) Services() []Microservice {
	out := make([]Microservice, len(c.services))
	copy(out, c.services)
	return out
}

// Lookup returns the ID of the named service.
func (c *Catalog) Lookup(name string) (ServiceID, bool) {
	id, ok := c.byName[name]
	return id, ok
}

// Flows returns the canonical request chains.
func (c *Catalog) Flows() [][]ServiceID {
	out := make([][]ServiceID, len(c.flows))
	for i, f := range c.flows {
		cp := make([]ServiceID, len(f))
		copy(cp, f)
		out[i] = cp
	}
	return out
}

// TotalDeployCost returns Σ_i κ(m_i): the cost of one instance of every
// service, the natural lower bound for a feasible budget.
func (c *Catalog) TotalDeployCost() float64 {
	s := 0.0
	for _, m := range c.services {
		s += m.DeployCost
	}
	return s
}

// Request is one user request u_h = (M_h, E_h): a directed chain of
// microservices with data volumes on the ingress, chain edges, and egress.
type Request struct {
	ID   int
	Home int // f(u_h): ID of the edge server covering the user

	Chain []ServiceID // M_h in dependency order; E_h = consecutive pairs

	DataIn   float64   // r_in^h, GB uploaded to the first microservice
	DataOut  float64   // r_out^h, GB returned to the user
	EdgeData []float64 // r_{m_i→m_j}^h per chain edge; len = len(Chain)-1

	Deadline float64 // 𝒟_h^max, seconds (constraint 4); +Inf = no deadline
}

// Validate checks the structural invariants of a request.
func (r *Request) Validate(numServices, numNodes int) error {
	if len(r.Chain) == 0 {
		return fmt.Errorf("msvc: request %d has empty chain", r.ID)
	}
	if r.Home < 0 || r.Home >= numNodes {
		return fmt.Errorf("msvc: request %d home %d out of range", r.ID, r.Home)
	}
	if len(r.EdgeData) != len(r.Chain)-1 {
		return fmt.Errorf("msvc: request %d has %d edge data for %d-step chain", r.ID, len(r.EdgeData), len(r.Chain))
	}
	for _, s := range r.Chain {
		if s < 0 || s >= numServices {
			return fmt.Errorf("msvc: request %d references unknown service %d", r.ID, s)
		}
	}
	if r.DataIn < 0 || r.DataOut < 0 {
		return fmt.Errorf("msvc: request %d has negative data size", r.ID)
	}
	for _, d := range r.EdgeData {
		if d < 0 {
			return fmt.Errorf("msvc: request %d has negative edge data", r.ID)
		}
	}
	return nil
}

// Uses reports whether the request's chain contains service s.
func (r *Request) Uses(s ServiceID) bool {
	for _, m := range r.Chain {
		if m == s {
			return true
		}
	}
	return false
}

// Position classifies where service s sits in the chain: "first", "last",
// "mid", or "" if absent. Used by the ordering property ℝ of Definition 9.
func (r *Request) Position(s ServiceID) string {
	for i, m := range r.Chain {
		if m != s {
			continue
		}
		switch {
		case i == 0:
			return "first"
		case i == len(r.Chain)-1:
			return "last"
		default:
			return "mid"
		}
	}
	return ""
}
