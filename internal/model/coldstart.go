package model

// ColdStartModel adds the serverless cold-start penalty to the analytic
// completion-time model (Eq. 2): a chain step executing on a *cold* instance
// pays Delay extra seconds on top of its compute time q/c. Package cluster
// already charges cold starts at the discrete-event fidelity level; this
// model is its closed-form counterpart, so the long-running daemon
// (internal/serve) can price scale-to-zero decisions without replaying an
// event timeline.
//
// The model is an overlay: Instance.ColdStart == nil — the default
// everywhere — leaves every completion time bitwise identical to the legacy
// expression (pinned by TestColdStartNilBitwise). Which instances are cold is
// mutable state (SetCold/SyncWarm); every effective change bumps Epoch so the
// DeltaEvaluator can detect a stale binding, exactly like the
// PlacementIndex epoch discipline.
type ColdStartModel struct {
	// Delay is the extra completion time (seconds) a chain step pays when it
	// executes on a cold instance. A zero Delay keeps results bitwise
	// identical to ColdStart == nil (0 added as a separate term is exact).
	Delay float64

	cold  [][]bool
	epoch uint64
}

// NewColdStartModel returns an all-warm model for m services over v nodes.
func NewColdStartModel(m, v int, delay float64) *ColdStartModel {
	c := &ColdStartModel{Delay: delay, cold: make([][]bool, m)}
	for i := range c.cold {
		c.cold[i] = make([]bool, v)
	}
	return c
}

// Epoch is a monotonic counter bumped on every effective cold-set change.
// Evaluators that cache routes under this model stamp the epoch at bind time
// and must fail loudly when it moves (DeltaEvaluator does).
func (c *ColdStartModel) Epoch() uint64 { return c.epoch }

// IsCold reports whether (svc, node) is currently cold.
func (c *ColdStartModel) IsCold(svc, node int) bool { return c.cold[svc][node] }

// SetCold marks (svc, node) cold or warm. Setting the value already held is
// a no-op that does not bump the epoch.
func (c *ColdStartModel) SetCold(svc, node int, cold bool) {
	if c.cold[svc][node] == cold {
		return
	}
	c.cold[svc][node] = cold
	c.epoch++
}

// SyncWarm derives the cold set from a placement: every deployed instance is
// warm, every undeployed coordinate cold (it would start cold if deployed
// this epoch). This is the daemon's epoch-boundary rule — instances added
// during an epoch stay cold until the next boundary. Returns the number of
// coordinates that changed; the epoch bumps once if any did.
func (c *ColdStartModel) SyncWarm(p Placement) int {
	changed := 0
	for i := range c.cold {
		for k := range c.cold[i] {
			want := !p.Has(i, k)
			if c.cold[i][k] == want {
				continue
			}
			c.cold[i][k] = want
			changed++
		}
	}
	if changed > 0 {
		c.epoch++
	}
	return changed
}

// stepTime is the compute term of Eq. 2 for chain service svc on node k —
// q_i / c_k — plus the cold-start delay when a ColdStartModel marks the
// instance cold. With ColdStart == nil the expression reduces to exactly the
// legacy term, so every pre-serverless result stays bitwise unchanged.
func (in *Instance) stepTime(svc, k int) float64 {
	d := in.Workload.Catalog.Service(svc).Compute / in.Graph.Node(k).Compute
	if in.ColdStart != nil && in.ColdStart.IsCold(svc, k) {
		d += in.ColdStart.Delay
	}
	return d
}
