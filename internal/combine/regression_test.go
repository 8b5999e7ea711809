package combine

import (
	"testing"

	"repro/internal/model"
	"repro/internal/msvc"
	"repro/internal/partition"
	"repro/internal/topology"
)

// TestParallelBatchRemovesMultipleInstancesOfOneService pins the floor-guard
// fix in parallelPhase: a single ω-batch containing several instances of the
// same service must be allowed to remove all but the last one. The earlier
// revision subtracted a per-service removal tally from the live count, double
// counting each removal and skipping legal ones — forcing extra rounds.
func TestParallelBatchRemovesMultipleInstancesOfOneService(t *testing.T) {
	cat := msvc.NewCatalog()
	svc, err := cat.Add("solo", 100, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := cat.AddFlow([]msvc.ServiceID{svc}); err != nil {
		t.Fatal(err)
	}
	g := topology.RandomGeometric(6, 0.9, topology.DefaultGenConfig(), 11)
	w, err := msvc.GenerateWorkload(cat, g, msvc.DefaultWorkloadConfig(12), 11)
	if err != nil {
		t.Fatal(err)
	}
	// Three instances at cost 300 against a budget of 100: exactly two
	// removals are needed, and with ω=1 the whole list is one batch.
	in := &model.Instance{Graph: g, Workload: w, Lambda: 0.5, Budget: 100}
	part := partition.Build(in, partition.DefaultConfig())
	pre := model.NewPlacement(in.M(), in.V())
	for k := 0; k < 3; k++ {
		pre.Set(svc, k, true)
	}

	for _, run := range []struct {
		name string
		fn   func(*model.Instance, *partition.Result, model.Placement, Config) Result
	}{{"Run", Run}, {"refRun", refRun}} {
		cfg := DefaultConfig()
		cfg.Omega = 1
		res := run.fn(in, part, pre, cfg)
		if !res.BudgetMet {
			t.Fatalf("%s: budget not met", run.name)
		}
		if res.Placement.Count(svc) != 1 {
			t.Fatalf("%s: %d instances survive, want 1", run.name, res.Placement.Count(svc))
		}
		if res.Combined != 2 {
			t.Fatalf("%s: Combined = %d, want 2", run.name, res.Combined)
		}
		// The double-counting bug needed a second round for the second
		// removal; the fixed guard completes the batch in one.
		if res.ParallelRounds != 1 {
			t.Fatalf("%s: ParallelRounds = %d, want 1", run.name, res.ParallelRounds)
		}
	}
}

// TestRollbackRestoresFrozenAndMigrated pins the snapshot fix: migrate()
// un-freezes the moved instance and bumps res.Migrated, so a step that is
// rolled back must restore both — the earlier restore() leaked the frozen
// deletion (the instance became combinable again) and kept counting the
// undone migration.
func TestRollbackRestoresFrozenAndMigrated(t *testing.T) {
	in, part, pre := buildInstance(8, 20, 10, 1e6)
	s := newState(in, part, pre, Config{})
	res := &Result{Migrated: 3} // pre-existing migrations must survive
	migrated := false
	for _, svc := range in.Workload.ServicesUsed() {
		for _, k := range append([]int(nil), s.nodesOf(svc)...) {
			key := instKey{svc, k}
			s.frozen[key] = true
			s.saveSnapshot(res)
			// migrate mutates nothing when it fails, so probing is safe.
			if !s.migrate(svc, k, res) {
				delete(s.frozen, key)
				continue
			}
			migrated = true
			if s.frozen[key] {
				t.Fatalf("migrate left %v frozen", key)
			}
			if res.Migrated != 4 {
				t.Fatalf("Migrated = %d after migrate, want 4", res.Migrated)
			}
			s.restoreSnapshot(res)
			if !s.frozen[key] {
				t.Fatalf("rollback leaked frozen entry %v", key)
			}
			if res.Migrated != 3 {
				t.Fatalf("Migrated = %d after rollback, want 3", res.Migrated)
			}
			if !s.place.Has(svc, k) {
				t.Fatalf("rollback did not restore instance (%d,%d)", svc, k)
			}
			for i := range pre.X {
				for n := range pre.X[i] {
					if s.place.Has(i, n) != pre.Has(i, n) {
						t.Fatalf("placement differs from snapshot at (%d,%d)", i, n)
					}
				}
			}
			break
		}
		if migrated {
			break
		}
	}
	if !migrated {
		t.Fatalf("no migratable instance found")
	}
}

// TestDeadlineCheckUsesCloudFallback pins the dead cloud-absorption fix:
// when a request's chain has lost its last instance, deadlineViolated must
// fall back to the cloud completion time instead of treating ErrNoInstance
// as an instant violation — otherwise the serial phase can never absorb a
// last instance into the cloud and rolls back forever.
func TestDeadlineCheckUsesCloudFallback(t *testing.T) {
	{
		in, part, pre := buildInstance(8, 20, 12, 1e6)
		cc := model.DefaultCloudConfig()
		in.Cloud = &cc
		// Finite but generous deadlines: the check must actually run and
		// must pass via the cloud path.
		for h := range in.Workload.Requests {
			in.Workload.Requests[h].Deadline = 1e12
		}
		s := newState(in, part, pre, Config{})

		svc := in.Workload.Requests[0].Chain[0]
		for _, k := range append([]int(nil), s.nodesOf(svc)...) {
			s.removeInstance(svc, k)
		}
		if s.place.Count(svc) != 0 {
			t.Fatalf("service %d not fully removed", svc)
		}
		if got, want := s.deadlineViolated(), refDeadlineViolated(in, s.place); got || want {
			t.Fatalf("cloud-served request flagged as violation: verdict %v (reference %v)", got, want)
		}
		// Shrink one affected deadline below its cloud completion time: now
		// the same cloud path must report the violation.
		req := &in.Workload.Requests[0]
		req.Deadline = in.Cloud.CloudCompletionTime(in.Workload.Catalog, req) * 0.5
		if got, want := s.deadlineViolated(), refDeadlineViolated(in, s.place); !got || !want {
			t.Fatalf("missed cloud deadline not flagged: verdict %v (reference %v)", got, want)
		}
	}

	// Two islands: the request's only instance is deployed on the other one,
	// so it is unreachable (+Inf, late). Removing that last instance hands
	// the request to the cloud, which meets its deadline. A route cache that
	// keeps an unreachable entry across the removal still says "late".
	{
		in, part, pre, svc := islandsInstance(t)
		s := newState(in, part, pre, Config{})
		if !s.deadlineViolated() {
			t.Fatalf("an unreachable request is not flagged")
		}
		s.removeInstance(svc, 2)
		if got, want := s.deadlineViolated(), refDeadlineViolated(in, s.place); got || want {
			t.Fatalf("after the last instance went, verdict %v (reference %v); the cloud serves in time", got, want)
		}
	}
}

// islandsInstance is a two-island substrate ({0,1} and {2,3}) with the cloud
// on and one request homed on node 0, whose one-service chain is deployed
// only on node 2. Its deadline is twice the cloud completion time.
func islandsInstance(t *testing.T) (*model.Instance, *partition.Result, model.Placement, int) {
	t.Helper()
	g := topology.New(4)
	for k := 0; k < 4; k++ {
		g.AddNode(float64(k), 0, 10, 50)
	}
	for _, l := range [][2]int{{0, 1}, {2, 3}} {
		if err := g.AddLink(l[0], l[1], 30); err != nil {
			t.Fatal(err)
		}
	}
	g.Finalize()
	cat := msvc.NewCatalog()
	svc, err := cat.Add("a", 100, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := cat.AddFlow([]msvc.ServiceID{svc}); err != nil {
		t.Fatal(err)
	}
	cc := model.DefaultCloudConfig()
	in := &model.Instance{Graph: g, Lambda: 0.5, Budget: 1e4, Cloud: &cc, Workload: &msvc.Workload{Catalog: cat,
		Requests: []msvc.Request{{Home: 0, Chain: []int{svc}, DataIn: 1, DataOut: 1}}}}
	req := &in.Workload.Requests[0]
	req.Deadline = 2 * cc.CloudCompletionTime(cat, req)
	pre := model.NewPlacement(in.M(), in.V())
	pre.Set(svc, 2, true)
	return in, partition.Build(in, partition.DefaultConfig()), pre, svc
}

// TestRunAbsorbsUnreachableLastInstance is the same shape through Run: the
// serial phase may remove the unreachable instance, since the cloud then
// serves the request in time, and Run and refRun must agree that it does.
func TestRunAbsorbsUnreachableLastInstance(t *testing.T) {
	in1, part1, pre1, svc := islandsInstance(t)
	in2, part2, pre2, _ := islandsInstance(t)
	res := assertRunsIdentical(t, "unreachable last instance", in1, in2, part1, part2, pre1, pre2, DefaultConfig())
	if res.Placement.Count(svc) != 0 || res.RolledBack != 0 {
		t.Fatalf("%d instances left, %d roll-backs; want the instance absorbed by the cloud", res.Placement.Count(svc), res.RolledBack)
	}
}
