package experiments

// Experiment is one driver of the registry: soclbench runs it by ID, or
// with every other driver of its Group ("paper" = -experiment all, "ext" =
// -experiment ext).
type Experiment struct {
	ID    string
	Group string
	Run   func(Options) []*Table
}

func one(f func(Options) *Table) func(Options) []*Table {
	return func(o Options) []*Table { return []*Table{f(o)} }
}

func two(f func(Options) (*Table, *Table)) func(Options) []*Table {
	return func(o Options) []*Table { a, b := f(o); return []*Table{a, b} }
}

// Registry lists every experiment in the order the group runs execute them.
var Registry = []Experiment{
	{"fig2", "paper", one(Fig2)},
	{"fig3", "paper", two(Fig3)},
	{"fig4", "paper", one(Fig4)},
	{"fig7", "paper", two(Fig7)},
	{"fig8", "paper", one(Fig8)},
	{"fig9", "paper", one(Fig9)},
	{"fig10", "paper", two(Fig10)},
	{"ext_budget", "ext", one(ExtBudget)},
	{"ext_lambda", "ext", one(ExtLambda)},
	{"ext_omega", "ext", one(ExtOmega)},
	{"ext_xi", "ext", one(ExtXi)},
	{"ext_online", "ext", one(ExtOnline)},
	{"ext_cloud", "ext", one(ExtCloud)},
	{"ext_cluster", "ext", one(ExtCluster)},
	{"ext_datasets", "ext", one(ExtDatasets)},
	{"ext_faults", "ext", one(ExtFaults)},
	{"ext_serve", "ext", one(ExtServe)},
	{"ext_scale", "ext", one(ExtScale)},
	{"ext_coldstart", "ext", one(ExtColdstart)},
	{"ext_overload", "ext", one(ExtOverload)},
}
