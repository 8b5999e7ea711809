package invariant

import "repro/internal/model"

// CheckShardMerge revalidates one shard's slice of a merged sharded
// placement against the paper's feasibility system (Eq. 4–6), given the
// shard sub-instance's evaluation of its restricted placement. It is called
// by combine.RunSharded's account task of each shard, on the shard's halo
// view of the final merged placement.
//
// Eq. 6 (storage) is hard: the merge writes disjoint node columns, so any
// per-node overflow is a sharding bug. Eq. 5 (budget) is checked only when
// the shard claims budgetMet — per-shard budget floors (service continuity)
// may legitimately exceed a shard's demand share. Eq. 4 (deadlines) is a
// recount from the per-request latencies (CheckDeadlineRecount).
func CheckShardMerge(in *model.Instance, ev *model.Evaluation, budgetMet bool, where string) {
	if !Enabled {
		return
	}
	if budgetMet {
		CheckBudget(in, ev.Placement, where)
	}
	CheckStorage(in, ev.Placement, where)
	CheckDeadlineRecount(in, ev, where)
}
