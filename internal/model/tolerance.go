package model

// Float-comparison tolerances shared by every algorithm in the repository.
// They were historically scattered as bare literals across internal/model,
// internal/baselines, internal/combine and the exact solvers; any drift between
// call sites would let two components disagree about feasibility of the same
// placement, so the values live here, next to the evaluator that defines
// Eq. 1–6.
const (
	// FeasTol is the absolute slack applied to the feasibility constraints:
	// budget (Eq. 5), per-node storage (Eq. 6), and deadline satisfaction
	// (Eq. 4). Sums of per-instance costs and per-step latencies accumulate
	// rounding error well below 1e-9 at every scale the experiments reach,
	// while real violations are orders of magnitude larger.
	FeasTol = 1e-9

	// ObjTol is the strict-improvement margin for objective comparisons:
	// a candidate only counts as better when it beats the incumbent by more
	// than ObjTol, so search loops cannot cycle on last-ulp noise between
	// evaluations of equal-quality placements.
	ObjTol = 1e-12
)
