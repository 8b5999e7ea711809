package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"time"
)

// A workload is one set of generated inputs and the driver that pushes them
// through the program. The three kinds differ in what one timed operation
// is: a full solve (batch), one Ingest+Tick of an in-process daemon (serve),
// or one epoch's closed-loop round trip over a socket (wire).
type workload struct {
	name string
	kind string // "batch", "serve" or "wire"
	why  string
	// setup generates every input from seed and readies the program; its wall
	// time is setup_s. tr, when non-nil, receives spans around the
	// generators.
	setup func(seed int64, workers int, tr *tracer) (runner, error)
}

// runner is a workload after setup.
type runner interface {
	// pass runs the whole workload once from a fresh program state (new
	// solver results, new daemon, new wire session). With a tracer it also
	// records spans and fills pass.layers; the end-to-end numbers of a traced
	// pass are only used to price the tracing itself.
	pass(tr *tracer) (*pass, error)
	// probe measures the layers that are not on the timed path and have to
	// be re-enacted through their public functions (codec, slicing, a bound
	// delta evaluator). Traced runs only.
	probe() (map[string]float64, error)
	// check verifies the outputs the last pass left behind.
	check() error
	// close stops whatever setup started and waits for it.
	close() error
}

// pass is what one run of a workload measured.
type pass struct {
	wall time.Duration // timed region of the pass
	ops  []float64     // µs per operation: solve, tick, or epoch round trip
	acks []float64     // wire: µs from event frame written to its ack read
	// events is the work the pass completed: solves for batch, events
	// admitted by the daemon for serve and wire.
	events int
	// objective is deterministic per seed: mean objective over the
	// workload's instances (batch) or mean served objective over non-empty
	// epochs (serve, wire).
	objective float64
	// failed of attempted requests (batch, serve) or event frames (wire)
	// were not served; fail_frac is their ratio.
	failed, attempted int
	// opErrors counts operations that returned an error: a solve, a tick, or
	// a session the program refused. Workloads are chosen so it stays 0.
	opErrors int
	liveHeap float64 // MiB after a forced GC, the pass's outputs still referenced
	layers   map[string]float64
}

// merge folds another scenario's run into the pass. Objectives add up; the
// caller divides by the number of scenarios.
func (p *pass) merge(q *pass) {
	p.wall += q.wall
	p.ops = append(p.ops, q.ops...)
	p.acks = append(p.acks, q.acks...)
	p.events += q.events
	p.objective += q.objective
	p.failed += q.failed
	p.attempted += q.attempted
	p.opErrors += q.opErrors
}

// metricDef names a metric. bound is the share of the old median by which a
// new median may be worse before `bench compare` calls it a regression; 0
// marks a deterministic metric that must repeat exactly.
type metricDef struct {
	name, unit, better string
	bound              float64
	reported           bool
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd are the numbers a user of the system sees. Not every workload has
// every one: a batch solve has no ack, a daemon tick no solve time.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: lower, bound: 0.25},
	{name: "solve_p50_ms", unit: "ms", better: lower, bound: 0.10},
	{name: "objective", unit: "score", better: lower},
	{name: "fail_frac", unit: "ratio", better: lower},
	{name: "tick_p50_us", unit: "us", better: lower, bound: 0.10},
	{name: "tick_p99_us", unit: "us", better: lower, bound: 0.15},
	{name: "events_per_s", unit: "1/s", better: higher, bound: 0.10},
	{name: "ack_p50_us", unit: "us", better: lower, bound: 0.10},
	{name: "ack_p99_us", unit: "us", better: lower, bound: 0.15},
	{name: "epoch_rtt_p50_us", unit: "us", better: lower, bound: 0.10},
	{name: "epoch_rtt_p99_us", unit: "us", better: lower, bound: 0.15},
	{name: "live_heap_mb", unit: "MiB", better: lower, bound: 0.10},
}

// contract are the end-to-end metrics of BENCHMARK.json. The driver wants
// every workload to print every metric and none to be 0, so they are the
// workload-neutral reading of the named ones above: op is the workload's
// timed operation (solve, tick, epoch round trip), ops_per_s the work it
// completes (solves, events admitted), served_frac is 1 − fail_frac.
//
// The driver also measures each metric's spread over ten different seeds, so
// these have to be steady from seed to seed, not just from run to run. That
// is why the tail is the 90th percentile — on wire_overload the 99th is set
// by how many full re-solves a seed's fault schedule happens to force and
// moves by 40 % between seeds, the 90th by 8 % — and why the bounds are wider
// than the named metrics': the same seed on this 2-CPU VM already moves a
// median by 5–15 % between runs minutes apart.
var contract = []metricDef{
	{name: "op_p50_us", unit: "us", better: lower, bound: 0.25},
	{name: "op_p90_us", unit: "us", better: lower, bound: 0.25},
	{name: "ops_per_s", unit: "1/s", better: higher, bound: 0.25},
	{name: "objective", unit: "score", better: lower, bound: 0.15},
	{name: "served_frac", unit: "ratio", better: higher, bound: 0.05},
	{name: "live_heap_mb", unit: "MiB", better: lower, bound: 0.1},
	{name: "setup_s", unit: "s", better: lower, bound: 0.25},
}

// perLayer names every per-layer metric; the layer is the part of the name
// before the first dot and is a package of internal/. README.md says which
// end-to-end metric each should move and on which workload.
var perLayer = []metricDef{
	{name: "topology.build_ms", unit: "ms", better: lower},
	{name: "topology.plan_shards_ms", unit: "ms", better: lower},
	{name: "msvc.generate_ms", unit: "ms", better: lower},
	{name: "sim.event_stream_ms", unit: "ms", better: lower},

	{name: "partition.build_ms", unit: "ms", better: lower},
	{name: "partition.groups", unit: "count", better: lower},
	{name: "preprov.run_ms", unit: "ms", better: lower},
	{name: "preprov.instances", unit: "count", better: lower},
	{name: "combine.run_ms", unit: "ms", better: lower},
	{name: "combine.combined", unit: "count", better: higher},
	{name: "combine.rolled_back", unit: "count", better: lower},
	{name: "combine.migrated", unit: "count", better: lower},
	{name: "combine.route_cache_hit_ratio", unit: "ratio", better: higher},
	{name: "model.evaluate_ms", unit: "ms", better: lower},

	{name: "combine.sharded.run_ms", unit: "ms", better: lower},
	{name: "combine.sharded.solve_ms", unit: "ms", better: lower, reported: true},
	{name: "combine.sharded.reconcile_ms", unit: "ms", better: lower, reported: true},
	{name: "combine.sharded.account_ms", unit: "ms", better: lower, reported: true},
	{name: "combine.sharded.shard_skew", unit: "ratio", better: lower, reported: true},
	{name: "combine.sharded.reconcile_useful_ratio", unit: "ratio", better: higher, reported: true},
	{name: "model.shard_slice_ms", unit: "ms", better: lower},

	{name: "serve.ingest_us", unit: "us", better: lower},
	{name: "serve.tick_react_us", unit: "us", better: lower},
	{name: "serve.tick_steady_us", unit: "us", better: lower},
	{name: "serve.policy_us", unit: "us", better: lower},
	{name: "serve.tick_self_us", unit: "us", better: lower},
	{name: "serve.incremental_ratio", unit: "ratio", better: higher, reported: true},
	{name: "serve.resolved_epochs", unit: "count", better: lower, reported: true},
	{name: "serve.allocs_per_tick", unit: "count", better: lower},
	{name: "serve.bytes_per_tick", unit: "B", better: lower},
	{name: "serve.cold_steps", unit: "count", better: lower, reported: true},
	{name: "serve.scaled_to_zero", unit: "count", better: higher, reported: true},
	{name: "serve.warm_spares", unit: "count", better: lower, reported: true},
	{name: "core.planner_ms", unit: "ms", better: lower},
	{name: "core.planner_calls", unit: "count", better: lower},
	{name: "repair.run_ms", unit: "ms", better: lower},
	{name: "repair.calls", unit: "count", better: lower},
	{name: "repair.adds", unit: "count", better: lower, reported: true},
	{name: "repair.evicts", unit: "count", better: lower, reported: true},
	{name: "repair.useful_ratio", unit: "ratio", better: higher, reported: true},
	{name: "model.delta_advance_eval_us", unit: "us", better: lower},
	{name: "chaos.fault_events", unit: "count", better: lower, reported: true},
	{name: "chaos.link.dropped", unit: "count", better: lower, reported: true},
	{name: "chaos.link.duplicated", unit: "count", better: lower, reported: true},
	{name: "chaos.link.delayed", unit: "count", better: lower, reported: true},

	{name: "serve.format_event_ns", unit: "ns", better: lower},
	{name: "serve.parse_event_ns", unit: "ns", better: lower},
	{name: "transport.encode_ns", unit: "ns", better: lower},
	{name: "transport.decode_ns", unit: "ns", better: lower},
	{name: "transport.frame_bytes", unit: "B", better: lower},
	{name: "transport.handle_event_us", unit: "us", better: lower},
	{name: "transport.handle_tick_us", unit: "us", better: lower},
	{name: "transport.socket_overhead_us", unit: "us", better: lower},
	{name: "transport.self_us", unit: "us", better: lower},
	{name: "transport.self_share", unit: "ratio", better: lower},
	{name: "transport.duplicates", unit: "count", better: lower, reported: true},
	{name: "transport.shed_deadline", unit: "count", better: lower, reported: true},
	{name: "transport.shed_queue", unit: "count", better: lower, reported: true},
	{name: "transport.shed_overload", unit: "count", better: lower, reported: true},
	{name: "transport.late_admits", unit: "count", better: lower, reported: true},
	{name: "transport.wait_p99_epochs", unit: "count", better: lower, reported: true},
	{name: "transport.breaker_trips", unit: "count", better: lower, reported: true},
	{name: "transport.degraded_epochs", unit: "count", better: lower, reported: true},
	{name: "transport.offload_epochs", unit: "count", better: lower, reported: true},

	{name: "trace_overhead_frac", unit: "ratio", better: lower},
}

func findDef(defs []metricDef, name string) (metricDef, bool) {
	for _, d := range defs {
		if d.name == name {
			return d, true
		}
	}
	return metricDef{}, false
}

// WorkloadResult is one workload's section of a result file.
type WorkloadResult struct {
	Name    string  `json:"name"`
	Why     string  `json:"why"`
	Seed    int64   `json:"seed"`
	Seconds float64 `json:"seconds"`
	// Passes counts measured passes; the discarded warm-up is not one. In a
	// traced run TracedPasses of them carried the tracer.
	Passes       int      `json:"passes"`
	TracedPasses int      `json:"traced_passes,omitempty"`
	Attempted    int      `json:"attempted"`
	Failed       int      `json:"failed"`
	Correct      bool     `json:"correct"`
	CheckErrors  []string `json:"check_errors,omitempty"`
	EndToEnd     []Metric `json:"end_to_end,omitempty"`
	Contract     []Metric `json:"-"` // the BENCHMARK.json reading, for `measure`
	PerLayer     []Metric `json:"per_layer,omitempty"`
}

type runOpts struct {
	seed    int64
	seconds float64
	traced  bool
	workers int
}

const (
	// Setup is repeated at least minSetups times; a setup of a few
	// milliseconds is repeated for setupBudget, up to maxSetups times, because
	// the median of five such readings still moves by a fifth between runs.
	minSetups   = 5
	maxSetups   = 25
	setupBudget = time.Second
	// minPasses keeps a median meaningful when a pass outlasts -seconds.
	minPasses = 3
)

// runWorkload sets the workload up, discards a warm-up pass, measures passes
// until opts.seconds have gone by, and checks the outputs. In a traced run
// plain and traced passes alternate, so the price of tracing is read off the
// same process and the same inputs.
func runWorkload(w *workload, o runOpts) (*WorkloadResult, error) {
	res := &WorkloadResult{Name: w.name, Why: w.why, Seed: o.seed, Seconds: o.seconds}

	var setupTr *tracer
	if o.traced {
		setupTr = newTracer()
	}
	var setups []float64
	var r runner
	for i, begun := 0, time.Now(); i < minSetups || (i < maxSetups && time.Since(begun) < setupBudget); i++ {
		if r != nil {
			if err := r.close(); err != nil {
				return nil, fmt.Errorf("%s: close: %w", w.name, err)
			}
		}
		t0 := time.Now()
		var err error
		if r, err = w.setup(o.seed, o.workers, setupTr); err != nil {
			return nil, fmt.Errorf("%s: setup: %w", w.name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer r.close()

	if _, err := r.pass(nil); err != nil { // warm-up, discarded
		return nil, fmt.Errorf("%s: warm-up pass: %w", w.name, err)
	}

	var plain, traced []*pass
	var tr *tracer
	if o.traced {
		tr = newTracer()
	}
	var ms runtime.MemStats
	start := time.Now()
	for n := 0; n < minPasses || time.Since(start).Seconds() < o.seconds; n++ {
		var passTr *tracer // nil: a plain pass
		if o.traced && n%2 == 1 {
			tr.reset()
			passTr = tr
		}
		p, err := r.pass(passTr)
		if err != nil {
			return nil, fmt.Errorf("%s: pass %d: %w", w.name, n+1, err)
		}
		runtime.GC()
		runtime.ReadMemStats(&ms)
		p.liveHeap = float64(ms.HeapAlloc) / (1 << 20)
		if passTr != nil {
			traced = append(traced, p)
		} else {
			plain = append(plain, p)
		}
	}
	res.Passes = len(plain) + len(traced)
	res.TracedPasses = len(traced)

	res.EndToEnd = namedMetrics(w.kind, setups, plain)
	res.Contract = contractMetrics(setups, plain)
	for _, p := range plain {
		res.Attempted += len(p.ops)
		res.Failed += p.opErrors
	}

	if o.traced {
		probes, err := r.probe()
		if err != nil {
			return nil, fmt.Errorf("%s: probe: %w", w.name, err)
		}
		res.PerLayer = layerMetrics(setupTr, plain, traced, probes)
		if err := os.MkdirAll(resultsDir, 0o755); err != nil {
			return nil, err
		}
		path := fmt.Sprintf("%s/trace_%s.json", resultsDir, w.name)
		if err := writeTrace(path, w.name, o.seed, tr.spans); err != nil {
			return nil, err
		}
	}

	res.Correct = true
	fail := func(format string, a ...any) {
		res.Correct = false
		res.CheckErrors = append(res.CheckErrors, fmt.Sprintf(format, a...))
	}
	if res.Failed > 0 {
		fail("%d of %d operations returned an error", res.Failed, res.Attempted)
	}
	if err := sameOutputs(plain); err != nil {
		fail("%v", err)
	}
	if err := r.check(); err != nil {
		fail("%v", err)
	}
	if err := r.close(); err != nil {
		fail("close: %v", err)
	}
	return res, nil
}

// sameOutputs checks that every pass produced the same deterministic outputs:
// the inputs are fixed by the seed, so a pass that disagrees with pass 1 means
// the program's result depended on timing.
func sameOutputs(ps []*pass) error {
	for i, p := range ps {
		if math.IsNaN(p.objective) || math.IsInf(p.objective, 0) {
			return fmt.Errorf("pass %d: objective %v is not finite", i+1, p.objective)
		}
		q := ps[0]
		if math.Float64bits(p.objective) != math.Float64bits(q.objective) ||
			p.failed != q.failed || p.attempted != q.attempted || p.events != q.events {
			return fmt.Errorf("pass %d disagrees with pass 1: objective %v vs %v, failed %d/%d vs %d/%d, events %d vs %d",
				i+1, p.objective, q.objective, p.failed, p.attempted, q.failed, q.attempted, p.events, q.events)
		}
	}
	return nil
}

// perPass maps each pass to one value.
func perPass(ps []*pass, f func(*pass) float64) []float64 {
	out := make([]float64, len(ps))
	for i, p := range ps {
		out[i] = f(p)
	}
	return out
}

func countOps(ps []*pass, f func(*pass) int) int {
	n := 0
	for _, p := range ps {
		n += f(p)
	}
	return n
}

func failFrac(p *pass) float64 {
	if p.attempted == 0 {
		return 0
	}
	return float64(p.failed) / float64(p.attempted)
}

func perSecond(p *pass) float64 { return float64(p.events) / p.wall.Seconds() }

// namedMetrics computes the end-to-end metrics that apply to a workload kind.
// Timings are taken per pass (a percentile ranks one pass's operations) and
// the Metric reports the median over passes.
func namedMetrics(kind string, setups []float64, ps []*pass) []Metric {
	nOps := countOps(ps, func(p *pass) int { return len(p.ops) })
	nAcks := countOps(ps, func(p *pass) int { return len(p.acks) })
	opQ := func(q, scale float64) func(*pass) float64 {
		return func(p *pass) float64 { return quantile(p.ops, q) / scale }
	}
	ackQ := func(q float64) func(*pass) float64 {
		return func(p *pass) float64 { return quantile(p.acks, q) }
	}
	var out []Metric
	add := func(name string, vals []float64, samples int) {
		d, _ := findDef(endToEnd, name)
		out = append(out, newMetric(d, vals, samples))
	}
	add("setup_s", setups, len(setups))
	switch kind {
	case "batch":
		add("solve_p50_ms", perPass(ps, opQ(0.5, 1e3)), nOps)
	case "serve":
		add("tick_p50_us", perPass(ps, opQ(0.5, 1)), nOps)
		add("tick_p99_us", perPass(ps, opQ(0.99, 1)), nOps)
		add("events_per_s", perPass(ps, perSecond), nOps)
	case "wire":
		add("ack_p50_us", perPass(ps, ackQ(0.5)), nAcks)
		add("ack_p99_us", perPass(ps, ackQ(0.99)), nAcks)
		add("epoch_rtt_p50_us", perPass(ps, opQ(0.5, 1)), nOps)
		add("epoch_rtt_p99_us", perPass(ps, opQ(0.99, 1)), nOps)
		add("events_per_s", perPass(ps, perSecond), nOps)
	}
	add("objective", perPass(ps, func(p *pass) float64 { return p.objective }), len(ps))
	add("fail_frac", perPass(ps, failFrac), countOps(ps, func(p *pass) int { return p.attempted }))
	add("live_heap_mb", perPass(ps, func(p *pass) float64 { return p.liveHeap }), len(ps))
	return out
}

// contractMetrics computes the BENCHMARK.json end-to-end metrics.
func contractMetrics(setups []float64, ps []*pass) []Metric {
	nOps := countOps(ps, func(p *pass) int { return len(p.ops) })
	vals := map[string][]float64{
		"op_p50_us":    perPass(ps, func(p *pass) float64 { return quantile(p.ops, 0.5) }),
		"op_p90_us":    perPass(ps, func(p *pass) float64 { return quantile(p.ops, 0.9) }),
		"ops_per_s":    perPass(ps, perSecond),
		"objective":    perPass(ps, func(p *pass) float64 { return p.objective }),
		"served_frac":  perPass(ps, func(p *pass) float64 { return 1 - failFrac(p) }),
		"live_heap_mb": perPass(ps, func(p *pass) float64 { return p.liveHeap }),
		"setup_s":      setups,
	}
	out := make([]Metric, 0, len(contract))
	for _, d := range contract {
		out = append(out, newMetric(d, vals[d.name], nOps))
	}
	return out
}

// layerMetrics folds the traced passes' layer numbers (median over traced
// passes), the setup spans (mean per call over the setup repeats), the probes
// and the price of tracing into one list in perLayer order. Metrics a
// workload does not have are left out.
func layerMetrics(setupTr *tracer, plain, traced []*pass, probes map[string]float64) []Metric {
	vals := make(map[string][]float64)
	for _, p := range traced {
		for name, v := range p.layers {
			vals[name] = append(vals[name], v)
		}
	}
	for name, lt := range selfTimes(setupTr.spans) {
		vals[name+"_ms"] = []float64{lt.meanMS()}
	}
	for name, v := range probes {
		vals[name] = []float64{v}
	}
	if len(plain) > 0 && len(traced) > 0 {
		p50 := func(p *pass) float64 { return quantile(p.ops, 0.5) }
		if base := median(perPass(plain, p50)); base > 0 {
			vals["trace_overhead_frac"] = []float64{median(perPass(traced, p50))/base - 1}
		}
	}
	var out []Metric
	for _, d := range perLayer {
		if v, ok := vals[d.name]; ok {
			out = append(out, newMetric(d, v, len(v)))
		}
	}
	return out
}
