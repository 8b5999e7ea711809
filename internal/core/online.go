package core

import "repro/internal/model"

// OnlineSolver runs SoCL in the paper's time-slotted online mode: at each
// slot it re-plans against the observed demand, but instead of starting
// from scratch it retains the previous slot's surviving instances as warm
// starts — the paper's "flexible storage planning … allowing more warm
// instances in the nearby area" — and reports placement churn (instances
// started/stopped versus the previous slot), the metric an operator pays
// for as container cold-starts.
//
// OnlineSolver is not safe for concurrent use; drive one per simulated
// cluster.
type OnlineSolver struct {
	cfg     Config
	prev    model.Placement
	hasPrev bool
}

// NewOnlineSolver returns an online solver with the given stage
// configuration.
func NewOnlineSolver(cfg Config) *OnlineSolver {
	return &OnlineSolver{cfg: cfg}
}

// OnlineStats extends the per-slot solution with churn accounting.
type OnlineStats struct {
	Started int // instances newly deployed vs the previous slot
	Stopped int // instances torn down vs the previous slot
	Kept    int // instances carried over
}

// Reset drops the warm state, making the next Step a cold start.
func (o *OnlineSolver) Reset() { o.hasPrev = false; o.prev = model.Placement{} }

// Step solves one slot. The instance may have a different workload each
// slot but must keep the same catalog size and node count for warm reuse;
// if the shape changed, the warm state is dropped automatically.
func (o *OnlineSolver) Step(in *model.Instance) (*Solution, OnlineStats, error) {
	if err := in.Validate(); err != nil {
		return nil, OnlineStats{}, err
	}
	if o.hasPrev && (len(o.prev.X) != in.M() || lenRowBool(o.prev.X) != in.V()) {
		o.Reset()
	}

	var warm *model.Placement
	if o.hasPrev {
		warm = &o.prev
	}
	sol := solve(in, o.cfg, warm)

	var st OnlineStats
	if o.hasPrev {
		st.Started, st.Stopped = model.PlacementDiff(o.prev, sol.Placement)
		st.Kept = sol.Placement.Instances() - st.Started
	} else {
		st.Started = sol.Placement.Instances()
	}
	o.prev = sol.Placement.Clone()
	o.hasPrev = true
	return sol, st, nil
}

func lenRowBool(x [][]bool) int {
	if len(x) == 0 {
		return 0
	}
	return len(x[0])
}
