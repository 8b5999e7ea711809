package transport

import (
	"fmt"
	"testing"

	"repro/internal/chaos"
	"repro/internal/invariant"
	"repro/internal/model"
	"repro/internal/msvc"
	"repro/internal/serve"
	"repro/internal/topology"
)

// failPolicy always errors — a reaction path that is down hard.
type failPolicy struct{}

func (failPolicy) Name() string { return "fail" }
func (failPolicy) Serve(*serve.EpochContext) (serve.Outcome, error) {
	return serve.Outcome{}, fmt.Errorf("reaction path down")
}

// ladderFixture: a single service deployed only on node 3, which has
// crashed. The stale placement serves nothing; only the ladder's cloud rung
// can save the request.
func ladderFixture(t *testing.T) *serve.EpochContext {
	t.Helper()
	g := topology.New(4)
	g.AddNode(0, 0, 10, 5)
	g.AddNode(1, 0, 10, 50)
	g.AddNode(-1, 0, 10, 50)
	g.AddNode(0, 1, 10, 50)
	for _, l := range [][2]int{{0, 1}, {0, 2}, {0, 3}, {1, 3}, {2, 3}} {
		if err := g.AddLink(l[0], l[1], 2.0); err != nil {
			t.Fatal(err)
		}
	}
	g.Finalize()
	cat := msvc.NewCatalog()
	if _, err := cat.Add("svc", 10, 2, 10); err != nil {
		t.Fatal(err)
	}
	in := &model.Instance{
		Graph: g,
		Workload: &msvc.Workload{Catalog: cat, Requests: []msvc.Request{
			{ID: 0, Home: 0, Chain: []int{0}, DataIn: 0.5, DataOut: 0.25, Deadline: 1e9},
		}},
		Lambda: 0.5,
		Budget: 100,
	}
	p := model.NewPlacement(cat.Len(), g.N())
	p.Set(0, 3, true)
	m := chaos.NewMask(g)
	if err := m.Apply(chaos.Event{Kind: chaos.NodeCrash, Node: 3}); err != nil {
		t.Fatal(err)
	}
	return &serve.EpochContext{
		In:      in,
		Mask:    m,
		Planned: p,
		Mode:    model.RouteModeOptimal,
	}
}

func TestGuardedLadderAbsorbsFailureAndOffloads(t *testing.T) {
	ctx := ladderFixture(t)
	cc := model.DefaultCloudConfig()
	g := &GuardedPolicy{
		Inner:   failPolicy{},
		Breaker: NewBreaker(BreakerConfig{Enabled: true, TripAfter: 1, Cooldown: 2}),
		Ladder: LadderConfig{
			CloudTransfer:  cc.TransferCost,
			CloudCompute:   cc.Compute,
			CloudColdStart: 0.5,
		},
	}
	out, err := g.Serve(ctx)
	if err != nil {
		t.Fatalf("guarded policy surfaced the inner failure: %v", err)
	}
	if g.InnerFailures != 1 || g.DegradedEpochs != 1 {
		t.Fatalf("failures=%d degraded=%d, want 1/1", g.InnerFailures, g.DegradedEpochs)
	}
	if g.Breaker.State() != BreakerOpen {
		t.Fatalf("breaker %v after TripAfter=1 failure, want open", g.Breaker.State())
	}
	// The only instance was on the crashed node: stale serve loses the
	// request, so the cloud rung must have engaged.
	if g.OffloadEpochs != 1 {
		t.Fatalf("offload epochs = %d, want 1", g.OffloadEpochs)
	}
	if out.Summary.Unserved() != 0 || out.Summary.CloudServed != 1 {
		t.Fatalf("unserved=%d cloudServed=%d, want 0/1", out.Summary.Unserved(), out.Summary.CloudServed)
	}

	// Without the cloud cold start the same offload is cheaper: the 0.5 s
	// spin-up must be visible in the served latency.
	g2 := &GuardedPolicy{
		Inner:   failPolicy{},
		Breaker: NewBreaker(BreakerConfig{Enabled: true, TripAfter: 1}),
		Ladder: LadderConfig{
			CloudTransfer: cc.TransferCost,
			CloudCompute:  cc.Compute,
		},
	}
	out2, err := g2.Serve(ladderFixture(t))
	if err != nil {
		t.Fatal(err)
	}
	if diff := out.View.Latency(0) - out2.View.Latency(0); diff < 0.499 || diff > 0.501 {
		t.Fatalf("cloud cold start = %v, want 0.5", diff)
	}

	// Breaker open: the next epoch goes straight to the ladder without
	// touching the inner policy.
	if _, err := g.Serve(ctx); err != nil {
		t.Fatal(err)
	}
	if g.InnerFailures != 1 {
		t.Fatalf("open breaker still ran the inner policy (failures=%d)", g.InnerFailures)
	}
	if g.DegradedEpochs != 2 {
		t.Fatalf("degraded epochs = %d, want 2", g.DegradedEpochs)
	}
}

// TestLadderCloudColdStartCountsDeadline: the cloud rung's cold start is
// part of the served latency, so a deadline the warm cloud would meet but
// the cold one misses is an Eq. 4 violation the evaluation itself counts.
func TestLadderCloudColdStartCountsDeadline(t *testing.T) {
	ctx := ladderFixture(t)
	cc := model.DefaultCloudConfig()
	req := &ctx.In.Workload.Requests[0]
	req.Deadline = cc.CloudCompletionTime(ctx.In.Workload.Catalog, req) + 0.25
	g := &GuardedPolicy{
		Inner:   failPolicy{},
		Breaker: NewBreaker(BreakerConfig{Enabled: true, TripAfter: 1}),
		Ladder: LadderConfig{
			CloudTransfer:  cc.TransferCost,
			CloudCompute:   cc.Compute,
			CloudColdStart: 0.5,
		},
	}
	out, err := g.Serve(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if out.Summary.CloudServed != 1 {
		t.Fatalf("cloudServed=%d, want 1", out.Summary.CloudServed)
	}
	if out.Summary.DeadlineViolated != 1 {
		t.Fatalf("served at %v against deadline %v, DeadlineViolated=%d, want 1",
			out.View.Latency(0), req.Deadline, out.Summary.DeadlineViolated)
	}
	invariant.CheckDeadlineRecount(ctx.Mask.Instance(ctx.In), out.View.Eval(), "ladder cloud rung")
}

func TestGuardedTransparentWhenHealthy(t *testing.T) {
	ctx := ladderFixture(t)
	g := &GuardedPolicy{
		Inner:   serve.NonePolicy{},
		Breaker: NewBreaker(BreakerConfig{Enabled: true, TripAfter: 3}),
	}
	want, _ := serve.NonePolicy{}.Serve(ctx)
	got, err := g.Serve(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got.Summary.Unserved() != want.Summary.Unserved() || got.Summary.Cost != want.Summary.Cost {
		t.Fatal("guarded policy altered a healthy inner outcome")
	}
	if g.DegradedEpochs != 0 || g.Breaker.State() != BreakerClosed {
		t.Fatalf("healthy serve degraded (degraded=%d state=%v)", g.DegradedEpochs, g.Breaker.State())
	}
}

func TestReactionCost(t *testing.T) {
	out := &serve.Outcome{
		Added:      []chaos.Inst{{Svc: 0, Node: 1}},
		Evicted:    []chaos.Inst{{Svc: 0, Node: 2}},
		RolledBack: 3,
	}
	if c := ReactionCost(out); c != 5 {
		t.Fatalf("repair cost = %d, want 5", c)
	}
	if c := ReactionCost(&serve.Outcome{Resolved: true}); c != DefaultResolveCost {
		t.Fatalf("resolve cost = %d, want %d", c, DefaultResolveCost)
	}
	// The engine's debt reads the same charge off the epoch's record.
	rec := &serve.EpochRecord{Adds: 1, Evicts: 1, RolledBack: 3}
	if c := recordCost(rec); c != 5 {
		t.Fatalf("record cost = %d, want 5", c)
	}
	if c := recordCost(&serve.EpochRecord{Resolved: true}); c != DefaultResolveCost {
		t.Fatalf("resolved record cost = %d, want %d", c, DefaultResolveCost)
	}
	if c := recordCost(&serve.EpochRecord{Incremental: true}); c != 0 {
		t.Fatalf("steady epoch cost = %d, want 0", c)
	}
}
