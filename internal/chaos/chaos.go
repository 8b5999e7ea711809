// Package chaos is the deterministic fault-injection layer: seeded,
// reproducible fault schedules (node crashes, link bandwidth degradation,
// storage shrinkage, with correlated and flapping variants) applied as a
// *masked view* over the substrate. The base topology.Graph and
// model.Instance are never mutated — a Mask accumulates the active faults
// and derives a masked graph/instance on demand, so the pristine substrate
// survives any fault sequence bit for bit: once every fault has healed, the
// mask hands back the original graph pointer and evaluation results are
// bitwise identical to the pre-fault baseline.
//
// Staleness is epoch-based, mirroring model.PlacementIndex: every effective
// fault application bumps Mask.Epoch(), and artifacts derived from the mask
// (masked graphs, repair outcomes, DeltaEvaluator bindings in
// internal/repair) record the epoch they were built at. A consumer holding
// an artifact stamped with epoch e is coherent with the mask iff Epoch()
// still equals e.
//
// Determinism contract: chaos is under the same rules as model/topology
// (enforced by the detrand analyzer) — no wall clock, no global math/rand,
// and no map iteration. Link state lives in a slice sorted by endpoint pair,
// not in the topology's link map, so derived graphs are built in a fixed
// order and schedules are pure functions of (graph, config, seed).
package chaos

import (
	"fmt"
	"sort"

	"repro/internal/model"
	"repro/internal/topology"
)

// FaultKind enumerates the substrate faults the injector models.
type FaultKind int

// Fault kinds. Each *Crash/Degrade/Shrink kind has a matching healing kind;
// schedules always emit them in pairs so any fault eventually clears.
const (
	// NodeCrash takes an edge server down: its links vanish from the masked
	// graph (the node becomes unreachable) and every instance deployed on it
	// is lost until repair re-provisions elsewhere.
	NodeCrash FaultKind = iota
	// NodeRecover brings a crashed server back with its original capacity.
	NodeRecover
	// LinkDegrade multiplies one link's effective Shannon rate by Factor
	// (0 < Factor < 1): transfers crossing it slow down proportionally.
	LinkDegrade
	// LinkRestore returns a degraded link to its nominal rate.
	LinkRestore
	// StorageShrink multiplies a node's storage capacity Φ(v_k) by Factor,
	// modelling disk pressure; placements may become Eq. 6-infeasible and
	// need eviction.
	StorageShrink
	// StorageRestore returns a shrunk node to its nominal capacity.
	StorageRestore
)

func (k FaultKind) String() string {
	switch k {
	case NodeCrash:
		return "node-crash"
	case NodeRecover:
		return "node-recover"
	case LinkDegrade:
		return "link-degrade"
	case LinkRestore:
		return "link-restore"
	case StorageShrink:
		return "storage-shrink"
	case StorageRestore:
		return "storage-restore"
	default:
		return "?"
	}
}

// Event is one scheduled fault (or healing) occurrence.
type Event struct {
	Slot int
	Kind FaultKind
	// Node is the target server for node and storage events.
	Node int
	// A, B (A < B) are the endpoints for link events.
	A, B int
	// Factor is the capacity multiplier for LinkDegrade/StorageShrink,
	// clamped into (0, 1]. Ignored by the other kinds.
	Factor float64
}

func (e Event) String() string {
	switch e.Kind {
	case LinkDegrade, LinkRestore:
		return fmt.Sprintf("slot %d: %s (%d,%d) factor %.3g", e.Slot, e.Kind, e.A, e.B, e.Factor)
	case StorageShrink, StorageRestore:
		return fmt.Sprintf("slot %d: %s node %d factor %.3g", e.Slot, e.Kind, e.Node, e.Factor)
	default:
		return fmt.Sprintf("slot %d: %s node %d", e.Slot, e.Kind, e.Node)
	}
}

// Inst identifies one deployed instance (service i on node k).
type Inst struct{ Svc, Node int }

// minFactor floors degradation factors so masked link rates stay positive
// (topology.Build rejects non-positive rates) and storage stays a number.
const minFactor = 1e-9

func clampFactor(f float64) float64 {
	if f < minFactor {
		return minFactor
	}
	if f > 1 {
		return 1
	}
	return f
}

// Mask is the accumulated fault state over one base substrate. It never
// mutates the base graph: Graph derives (and caches, keyed by epoch) a
// finalized masked topology, and Instance wraps a model.Instance with the
// masked graph swapped in. The zero value is unusable; construct with
// NewMask. Not safe for concurrent mutation; the derived graph may be read
// concurrently once built.
type Mask struct {
	base *topology.Graph
	// links is the base link set sorted by (A, B) — the one canonical order
	// every derived graph is built in. linkScale is parallel to links.
	links     []topology.Link
	linkScale []float64
	down      []bool
	storScale []float64

	downCount, degradedCount, shrunkCount int

	epoch        uint64
	derived      *topology.Graph
	derivedEpoch uint64
	// nodeBuf and linkBuf hold the node and link lists Graph hands to
	// topology.Build; Build copies what it keeps, so they are reused.
	nodeBuf []topology.Node
	linkBuf []topology.Link
}

// NewMask returns a pristine mask over base.
func NewMask(base *topology.Graph) *Mask {
	links := base.Links()
	sort.Slice(links, func(i, j int) bool {
		if links[i].A != links[j].A {
			return links[i].A < links[j].A
		}
		return links[i].B < links[j].B
	})
	m := &Mask{
		base:      base,
		links:     links,
		linkScale: make([]float64, len(links)),
		down:      make([]bool, base.N()),
		storScale: make([]float64, base.N()),
	}
	for i := range m.linkScale {
		m.linkScale[i] = 1
	}
	for k := range m.storScale {
		m.storScale[k] = 1
	}
	return m
}

// Base returns the pristine substrate the mask wraps.
func (m *Mask) Base() *topology.Graph { return m.base }

// Links returns the base link set in the mask's canonical (A, B)-ascending
// order — the order derived graphs are rebuilt in. Callers must not mutate
// the returned slice.
func (m *Mask) Links() []topology.Link { return m.links }

// Epoch returns the mask's mutation counter: it increases monotonically on
// every effective Apply (no-ops — e.g. crashing an already-down node — do
// not count) and never otherwise. Consumers stamp derived artifacts with the
// epoch and treat any drift as staleness.
func (m *Mask) Epoch() uint64 { return m.epoch }

// Pristine reports whether no fault is currently active. A pristine mask's
// Graph() is the base graph itself (pointer-identical), which is what makes
// crash-then-recover round trips bitwise exact.
func (m *Mask) Pristine() bool {
	return m.downCount == 0 && m.degradedCount == 0 && m.shrunkCount == 0
}

// NodeUp reports whether node k is currently serving.
func (m *Mask) NodeUp(k int) bool { return !m.down[k] }

// DownNodes returns the currently-crashed nodes, ascending.
func (m *Mask) DownNodes() []int {
	var out []int
	for k, d := range m.down {
		if d {
			out = append(out, k)
		}
	}
	return out
}

// linkIndex locates the link (a,b) in the sorted slice, or -1.
func (m *Mask) linkIndex(a, b int) int {
	if a > b {
		a, b = b, a
	}
	i := sort.Search(len(m.links), func(i int) bool {
		if m.links[i].A != a {
			return m.links[i].A > a
		}
		return m.links[i].B >= b
	})
	if i < len(m.links) && m.links[i].A == a && m.links[i].B == b {
		return i
	}
	return -1
}

// Apply folds one fault event into the mask. Events that do not change the
// state (crashing a down node, restoring a nominal link) are no-ops that
// leave the epoch untouched. Unknown link endpoints or out-of-range nodes
// return an error rather than panicking, so replaying a schedule against a
// mismatched graph fails loudly.
func (m *Mask) Apply(ev Event) error {
	switch ev.Kind {
	case NodeCrash, NodeRecover, StorageShrink, StorageRestore:
		if ev.Node < 0 || ev.Node >= len(m.down) {
			return fmt.Errorf("chaos: event %v targets node outside [0,%d)", ev, len(m.down))
		}
	}
	switch ev.Kind {
	case NodeCrash:
		if m.down[ev.Node] {
			return nil
		}
		m.down[ev.Node] = true
		m.downCount++
	case NodeRecover:
		if !m.down[ev.Node] {
			return nil
		}
		m.down[ev.Node] = false
		m.downCount--
	case LinkDegrade, LinkRestore:
		i := m.linkIndex(ev.A, ev.B)
		if i < 0 {
			return fmt.Errorf("chaos: event %v targets a link the base graph does not have", ev)
		}
		newScale := 1.0
		if ev.Kind == LinkDegrade {
			newScale = clampFactor(ev.Factor)
		}
		delta, changed := updateScale(&m.linkScale[i], newScale)
		if !changed {
			return nil
		}
		m.degradedCount += delta
	case StorageShrink, StorageRestore:
		newScale := 1.0
		if ev.Kind == StorageShrink {
			newScale = clampFactor(ev.Factor)
		}
		delta, changed := updateScale(&m.storScale[ev.Node], newScale)
		if !changed {
			return nil
		}
		m.shrunkCount += delta
	default:
		return fmt.Errorf("chaos: unknown fault kind %d", ev.Kind)
	}
	m.epoch++
	return nil
}

// updateScale writes next into *cur, reporting whether anything changed and
// the resulting delta to the active-fault count (+1 nominal→scaled, -1
// scaled→nominal, 0 for scaled→differently-scaled). Scales are assigned
// literals or clamped schedule factors, never computed, so the exact float
// compares are deliberate no-op detection.
func updateScale(cur *float64, next float64) (delta int, changed bool) {
	//socllint:ignore floateq scales are assigned literals/clamped factors, never computed; exact no-op detection is intended
	if *cur == next {
		return 0, false
	}
	was, now := *cur != 1, next != 1
	*cur = next
	switch {
	case now && !was:
		delta = 1
	case was && !now:
		delta = -1
	}
	return delta, true
}

// Graph returns the masked substrate: crashed nodes keep their ID (the
// placement and request coordinate systems stay dense) but lose every link,
// degraded links carry Rate·Factor, and shrunk nodes carry Storage·Factor.
// A pristine mask returns the base graph itself; otherwise the derived graph
// is rebuilt at most once per epoch and cached.
func (m *Mask) Graph() *topology.Graph {
	if m.Pristine() {
		return m.base
	}
	if m.derived != nil && m.derivedEpoch == m.epoch {
		return m.derived
	}
	nodes := m.nodeBuf[:0]
	for k := 0; k < m.base.N(); k++ {
		n := m.base.Node(k)
		n.Storage *= m.storScale[k]
		nodes = append(nodes, n)
	}
	links := m.linkBuf[:0]
	for i, l := range m.links {
		if m.down[l.A] || m.down[l.B] {
			continue
		}
		// Rate·1.0 is exact, so un-degraded links keep their bitwise rate.
		l.Rate *= m.linkScale[i]
		links = append(links, l)
	}
	m.nodeBuf, m.linkBuf = nodes, links
	g, err := topology.Build(nodes, links)
	if err != nil {
		panic("chaos: rebuilding masked graph: " + err.Error()) // unreachable: endpoints and rates come from the base graph
	}
	m.derived = g
	m.derivedEpoch = m.epoch
	return g
}

// Instance returns in with the masked graph swapped in (workload, λ, budget
// and cloud config are shared, not copied). The caller's instance must be
// built on the mask's base graph.
func (m *Mask) Instance(in *model.Instance) *model.Instance {
	if in.Graph != m.base {
		panic("chaos: Mask.Instance called with an instance built on a different graph")
	}
	cp := *in
	cp.Graph = m.Graph()
	return &cp
}

// MaskPlacement returns a copy of p with every instance hosted on a crashed
// node cleared, plus the cleared instances in ascending (svc, node) order —
// the "lost instances" input to damage classification.
func (m *Mask) MaskPlacement(p model.Placement) (model.Placement, []Inst) {
	q := p.Clone()
	var lost []Inst
	for i := range q.X {
		for k, on := range q.X[i] {
			if on && m.down[k] {
				q.Set(i, k, false)
				lost = append(lost, Inst{Svc: i, Node: k})
			}
		}
	}
	return q, lost
}
