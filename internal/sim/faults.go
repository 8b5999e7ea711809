package sim

// The faulty-slot timeline — plan on the substrate as known, strike the
// slot's faults, re-home displaced requests, apply the FaultPolicy, evaluate
// on the masked substrate — is serve.Daemon.Tick's; this file only maps a
// Config's FaultPolicy onto the daemon's serve.Policy layer. A nil
// Config.Faults emits no fault events, so the daemon's mask stays pristine
// and every masked view is the base substrate.

import (
	"fmt"

	"repro/internal/chaos"
	"repro/internal/model"
	"repro/internal/repair"
	"repro/internal/serve"
)

// FaultPolicy selects how a slot's placement responds to substrate damage.
type FaultPolicy int

const (
	// PolicyNone serves the damaged placement as-is: instances on crashed
	// nodes are simply gone and their requests degrade to the cloud or go
	// unserved. The "no repair" lower bound.
	PolicyNone FaultPolicy = iota
	// PolicyRepair runs the incremental repair engine (internal/repair) on
	// the damaged placement: re-route, evict to restore feasibility, greedily
	// re-provision lost instances. The SoCL answer.
	PolicyRepair
	// PolicyResolve re-runs the full placement algorithm on the post-fault
	// substrate: the expensive reference an incremental repair competes with.
	PolicyResolve
)

func (p FaultPolicy) String() string {
	switch p {
	case PolicyNone:
		return "none"
	case PolicyRepair:
		return "repair"
	case PolicyResolve:
		return "resolve"
	default:
		// Out-of-range values used to collapse to "none", which made a
		// mis-parsed flag silently run the no-repair lower bound.
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// policyFor maps a FaultPolicy onto the shared serve.Policy layer for algo.
// An algorithm that implements repairDriver gets to drive the repair engine
// itself (core.OnlineSolver composes repair with its warm state).
func policyFor(p FaultPolicy, algo Algorithm) serve.Policy {
	switch p {
	case PolicyRepair:
		rp := serve.RepairPolicy{}
		if drv, ok := algo.(repairDriver); ok {
			rp.Run = drv.RepairWith
		}
		return rp
	case PolicyResolve:
		return serve.ResolvePolicy{}
	default:
		return serve.NonePolicy{}
	}
}

// repairDriver lets an algorithm perform PolicyRepair's incremental round
// itself, so stateful solvers can fold the repaired placement into their
// warm state (core.OnlineSolver.Repair).
type repairDriver interface {
	RepairWith(in *model.Instance, m *chaos.Mask, p model.Placement, cfg repair.Config) (*repair.Result, error)
}
