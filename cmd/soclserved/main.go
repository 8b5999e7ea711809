// Command soclserved is the long-running placement daemon over the SoCL
// stack (internal/serve): it owns a live substrate and placement and ingests
// an event stream — request arrivals, departures, user moves, fault strikes
// and heals — reacting incrementally through the delta evaluator and the
// repair engine, and escalating to a full re-solve only past a configurable
// degradation threshold.
//
// The daemon speaks the recorded event-script format (serve.WriteScript /
// serve.ParseScript), so a batch simulation can be recorded once and served
// many ways:
//
//	soclserved -record events.txt -nodes 12 -users 15 -slots 24 -fail-rate 0.15
//	soclserved -script events.txt                  # serve mode (incremental)
//	soclserved -script events.txt -replay -policy repair   # bitwise sim replay
//	soclserved -script events.txt -idle-epochs 2 -warm-pool 1 -cold-start 0.25
//
// In replay mode the daemon re-plans every epoch exactly like the batch
// simulator's slot loop and its evaluation stream is bitwise identical to
// sim.Run over the same scenario (use -policy repair for scripts recorded
// with faults, -policy none for fault-free ones). Serve mode solves once and
// afterwards reacts incrementally; adding -idle-epochs enables the
// serverless lifecycle (scale-to-zero, warm-pool sizing, cold-start
// pricing).
//
// The daemon also speaks a framed wire protocol (internal/transport), so
// live clients can drive it instead of script playback:
//
//	soclserved -listen unix:/tmp/socl.sock -once            # socket frontend
//	soclserved -listen tcp:127.0.0.1:7070 -unordered -deadline 1 \
//	    -queue 64 -capacity 16 -breaker                     # hardened frontend
//	soclserved -listen http:127.0.0.1:8080                  # loopback HTTP
//	soclserved -send unix:/tmp/socl.sock -script events.txt # load client
//	soclserved -send tcp:127.0.0.1:7070 -script events.txt \
//	    -unreliable -chaos-drop 0.3                         # open-loop + chaos
//
// A reliable (default) session retransmits until acknowledged and the
// ordered server admits in sequence order, so even a chaos-impaired wire
// yields a recorded stream identical to the sent script and a bitwise
// replay. -unordered plus -deadline/-queue/-capacity/-breaker is the
// overload regime: late events are shed, reaction costs debit admission
// capacity, and the circuit breaker degrades service (stale placement →
// cloud offload → shed) instead of collapsing.
package main

import (
	"bufio"
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/msvc"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/topology"
)

func main() {
	var (
		record = flag.String("record", "", "record the scenario's event stream to this file ('-' = stdout) and exit")
		script = flag.String("script", "", "event script to serve ('-' = stdin)")

		nodes    = flag.Int("nodes", 12, "edge nodes (recorded scenario)")
		radius   = flag.Float64("radius", 0.4, "geometric topology radius")
		users    = flag.Int("users", 15, "users issuing requests")
		seed     = flag.Int64("seed", 1, "root random seed")
		slots    = flag.Int("slots", 24, "scenario length in slots")
		slotmin  = flag.Float64("slotmin", 0, "slot length in minutes (0 = simulator default)")
		failRate = flag.Float64("fail-rate", 0.15, "per-slot fault probability (0 = no fault schedule)")

		policy    = flag.String("policy", "auto", "reaction policy: auto | none | repair | resolve")
		threshold = flag.Float64("resolve-threshold", serve.DefaultResolveThreshold, "auto policy: post-repair unserved fraction past which to re-solve (negative disables escalation)")
		replay    = flag.Bool("replay", false, "replay mode: re-plan every epoch like the batch simulator (bitwise-comparable)")
		batch     = flag.Int("batch", 0, "max arrivals admitted per epoch, overflow deferred (0 = unlimited; serve mode only)")

		idleEpochs  = flag.Int("idle-epochs", 0, "scale an instance to zero after this many idle epochs (0 disables the serverless lifecycle)")
		warmPool    = flag.Int("warm-pool", 0, "minimum warm instances kept per service")
		warmWindow  = flag.Int("warm-window", 0, "demand window, in epochs, for the warm-pool sizer (0 = default)")
		reqsPerWarm = flag.Int("reqs-per-warm", 0, "demand a single warm instance absorbs, for the sizer (0 = default)")
		coldStart   = flag.Float64("cold-start", 0, "cold-start latency added per chain step on a cold instance")

		listen     = flag.String("listen", "", "serve the framed wire protocol on unix:PATH, tcp:HOST:PORT, or http:HOST:PORT")
		once       = flag.Bool("once", false, "with -listen: exit after the first session finishes, printing its report")
		send       = flag.String("send", "", "play -script at a listening daemon (unix:PATH or tcp:HOST:PORT)")
		unreliable = flag.Bool("unreliable", false, "with -send: open-loop mode — fire event frames once, no retransmission")
		unordered  = flag.Bool("unordered", false, "with -listen: admit frames as they arrive instead of in sequence order (the shedding regime)")
		deadline   = flag.Int("deadline", 0, "with -listen: default per-event latency budget in slots; blown budgets are shed (0 = unlimited)")
		queue      = flag.Int("queue", 0, "with -listen: admission queue bound (0 = unbounded)")
		capacity   = flag.Int("capacity", 0, "with -listen: admission work units per epoch, debited by reaction costs (0 = unlimited)")
		breakerOn  = flag.Bool("breaker", false, "with -listen: circuit-break the reaction path and degrade (stale serve → cloud offload → shed)")
		costBudget = flag.Int("cost-budget", 0, "with -breaker: reaction work units counted as an overrun failure (0 = errors only)")
		budget     = flag.Int("budget-slots", 0, "with -send: per-event deadline budget stamped on the wire (0 = server default)")
		chaosDrop  = flag.Float64("chaos-drop", 0, "with -send: per-frame drop probability on the client's sends")
		chaosDup   = flag.Float64("chaos-dup", 0, "with -send: per-frame duplication probability")
		chaosDelay = flag.Float64("chaos-delay", 0, "with -send: per-frame reorder-delay probability")

		csvPath = flag.String("csv", "", "write per-epoch records as CSV to this file")
		quiet   = flag.Bool("quiet", false, "suppress the per-epoch table, print only the summary")
	)
	flag.Parse()

	if err := run(options{
		record: *record, script: *script,
		nodes: *nodes, radius: *radius, users: *users, seed: *seed,
		slots: *slots, slotmin: *slotmin, failRate: *failRate,
		policy: *policy, threshold: *threshold, replay: *replay, batch: *batch,
		listen: *listen, once: *once, send: *send, unreliable: *unreliable,
		unordered: *unordered, deadline: *deadline, queue: *queue,
		capacity: *capacity, breakerOn: *breakerOn, costBudget: *costBudget,
		budget: *budget, drop: *chaosDrop, dup: *chaosDup, delay: *chaosDelay,
		lifecycle: serve.LifecycleConfig{
			IdleEpochs:     *idleEpochs,
			WarmPool:       *warmPool,
			WarmWindow:     *warmWindow,
			ReqsPerWarm:    *reqsPerWarm,
			ColdStartDelay: *coldStart,
		},
		csvPath: *csvPath, quiet: *quiet,
	}); err != nil {
		fmt.Fprintln(os.Stderr, "soclserved:", err)
		os.Exit(1)
	}
}

type options struct {
	record, script string

	nodes, users, slots int
	radius, slotmin     float64
	failRate            float64
	seed                int64
	policy              string
	threshold           float64
	replay              bool
	batch               int
	lifecycle           serve.LifecycleConfig
	csvPath             string
	quiet               bool

	// Transport modes (transport.go).
	listen, send     string
	once             bool
	unreliable       bool
	unordered        bool
	deadline         int
	queue            int
	capacity         int
	breakerOn        bool
	costBudget       int
	budget           int
	drop, dup, delay float64
}

func run(o options) error {
	switch {
	case o.record != "":
		return recordScenario(o)
	case o.listen != "":
		return runListen(o)
	case o.send != "":
		return runSendload(o)
	case o.script != "":
		return serveScript(o)
	default:
		return fmt.Errorf("nothing to do: pass -record, -script, -listen, or -send (see -h)")
	}
}

// scenario builds the batch-simulator configuration -record writes out; its
// event stream is what the daemon serves.
func scenario(o options) sim.Config {
	g := topology.RandomGeometric(o.nodes, o.radius, topology.DefaultGenConfig(), o.seed)
	cat := msvc.EShopCatalog(msvc.DefaultDatasetConfig(), o.seed)
	cfg := sim.DefaultConfig(g, cat, o.users, o.seed)
	if o.slotmin > 0 {
		cfg.SlotMinutes = o.slotmin
	}
	cfg.DurationMinutes = float64(o.slots) * cfg.SlotMinutes
	if o.failRate > 0 {
		scfg := chaos.DefaultScheduleConfig()
		scfg.NodeFailProb = o.failRate
		scfg.LinkFailProb = o.failRate
		scfg.StorageShrinkProb = o.failRate / 2
		scfg.MinNodesUp = o.nodes / 2
		cfg.Faults = chaos.Generate(g, o.slots, scfg, o.seed)
		cfg.Policy = sim.PolicyRepair
	}
	return cfg
}

// recordScenario writes the scenario's event stream, stamped with the
// topology provenance (radius and seeds) the daemon needs to rebuild the
// substrate from the script alone.
func recordScenario(o options) error {
	s, err := sim.EventStream(scenario(o))
	if err != nil {
		return err
	}
	s.Meta.Radius = o.radius
	s.Meta.TopoSeed = o.seed
	s.Meta.CatSeed = o.seed
	if o.record == "-" {
		return serve.WriteScript(os.Stdout, s)
	}
	f, err := os.Create(o.record)
	if err != nil {
		return err
	}
	err = serve.WriteScript(f, s)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "recorded %d events over %d slots to %s\n",
		len(s.Events), s.Meta.NumSlots, o.record)
	return nil
}

// daemonConfig rebuilds the substrate from the script's meta line and wires
// the daemon to the warm-started SoCL online solver: the planner is its
// Place, and the repair seam is its Repair, so incremental rounds feed the
// solver's warm state.
func daemonConfig(o options, meta serve.Meta) (serve.Config, error) {
	if meta.Nodes <= 0 || meta.Radius <= 0 {
		return serve.Config{}, fmt.Errorf("script lacks topology provenance (nodes/radius in the meta line); record it with soclserved -record")
	}
	g := topology.RandomGeometric(meta.Nodes, meta.Radius, topology.DefaultGenConfig(), meta.TopoSeed)
	cat := msvc.EShopCatalog(msvc.DefaultDatasetConfig(), meta.CatSeed)
	algo := sim.NewSoCLOnline(core.DefaultConfig())
	sc := serve.Config{
		Graph:       g,
		Catalog:     cat,
		Lambda:      meta.Lambda,
		Budget:      meta.Budget,
		Mode:        model.RouteModeOptimal,
		RouteSeed:   meta.RouteSeed,
		Planner:     algo.Place,
		PlannerName: algo.Name(),
		Replan:      o.replay,
	}
	if meta.CloudTransfer != 0 || meta.CloudCompute != 0 {
		sc.Cloud = &model.CloudConfig{TransferCost: meta.CloudTransfer, Compute: meta.CloudCompute}
	}
	rep := serve.RepairPolicy{Run: algo.RepairWith}
	switch o.policy {
	case "auto":
		sc.Policy = serve.AutoPolicy{Threshold: o.threshold, Repair: rep}
	case "none":
		sc.Policy = serve.NonePolicy{}
	case "repair":
		sc.Policy = rep
	case "resolve":
		sc.Policy = serve.ResolvePolicy{}
	default:
		return serve.Config{}, fmt.Errorf("unknown policy %q (want auto | none | repair | resolve)", o.policy)
	}
	if !o.replay {
		sc.MaxBatch = o.batch
		sc.Lifecycle = o.lifecycle
	} else if o.batch != 0 || o.lifecycle.Enabled() {
		return serve.Config{}, fmt.Errorf("-replay is the batch simulator's discipline: it admits everything and keeps every instance (drop -batch and the lifecycle flags)")
	}
	return sc, nil
}

func serveScript(o options) error {
	r := io.Reader(os.Stdin)
	if o.script != "-" {
		f, err := os.Open(o.script)
		if err != nil {
			return err
		}
		defer f.Close()
		r = f
	}
	s, err := serve.ParseScript(r)
	if err != nil {
		return err
	}
	sc, err := daemonConfig(o, s.Meta)
	if err != nil {
		return err
	}
	d, err := serve.NewDaemon(sc)
	if err != nil {
		return err
	}
	rr, err := d.RunScript(s)
	if rr != nil {
		report(os.Stdout, rr, o.quiet)
		if o.csvPath != "" {
			if werr := writeCSV(o.csvPath, rr); werr != nil && err == nil {
				err = werr
			}
		}
	}
	return err
}

var epochHeader = []string{"epoch", "reqs", "avg_delay", "cost", "served_obj",
	"missing", "unroutable", "degraded", "adds", "evicts", "resolved", "incr",
	"cold", "scale0", "warm"}

func epochRow(r *serve.EpochRecord) []string {
	b := func(v bool) string {
		if v {
			return "1"
		}
		return "0"
	}
	return []string{
		strconv.Itoa(r.Epoch), strconv.Itoa(r.Requests),
		fmt.Sprintf("%.3f", r.AvgDelay), fmt.Sprintf("%.1f", r.Cost),
		fmt.Sprintf("%.1f", r.ServedObjective),
		strconv.Itoa(r.Missing), strconv.Itoa(r.Unroutable), strconv.Itoa(r.Degraded),
		strconv.Itoa(r.Adds), strconv.Itoa(r.Evicts), b(r.Resolved), b(r.Incremental),
		strconv.Itoa(r.ColdSteps), strconv.Itoa(r.ScaledToZero), strconv.Itoa(r.WarmSpares),
	}
}

func report(w io.Writer, rr *serve.RunResult, quiet bool) {
	if !quiet {
		fmt.Fprintln(w, tabJoin(epochHeader))
		for i := range rr.Records {
			fmt.Fprintln(w, tabJoin(epochRow(&rr.Records[i])))
		}
	}
	reqs, unserved, resolves, incr, cold, scale0 := 0, 0, 0, 0, 0, 0
	for _, r := range rr.Records {
		reqs += r.Requests
		unserved += r.Missing + r.Unroutable
		if r.Resolved {
			resolves++
		}
		if r.Incremental {
			incr++
		}
		cold += r.ColdSteps
		scale0 += r.ScaledToZero
	}
	fmt.Fprintf(w, "epochs=%d requests=%d unserved=%d resolves=%d incremental=%d cold_steps=%d scaled_to_zero=%d deployed=%d\n",
		len(rr.Records), reqs, unserved, resolves, incr, cold, scale0, rr.Placement.Instances())
}

func tabJoin(cells []string) string {
	var b bytes.Buffer
	for i, c := range cells {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%-10s", c)
	}
	return b.String()
}

// writeCSV writes the per-epoch records to path and returns the first error
// of a write, the flush or the close.
func writeCSV(path string, rr *serve.RunResult) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	// A bufio.Writer keeps its first error for Flush.
	w.WriteString(strings.Join(epochHeader, ",") + "\n")
	for i := range rr.Records {
		w.WriteString(strings.Join(epochRow(&rr.Records[i]), ",") + "\n")
	}
	err = w.Flush()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
