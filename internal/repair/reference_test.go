package repair

import (
	"repro/internal/chaos"
	"repro/internal/model"
)

// naiveScorer is the reference path: every score is a scratch
// EvaluateRouted, probes clone the placement.
type naiveScorer struct {
	in   *model.Instance
	p    model.Placement
	mode model.RoutingMode
	seed int64
}

func (s *naiveScorer) scoreOf(p model.Placement) (score, bool) {
	ev := s.in.EvaluateRouted(p, s.mode, s.seed)
	return scoreOf(s.in, ev.Summary()), ev.OverBudget
}
func (s *naiveScorer) view() model.EvalView {
	return s.in.EvaluateRouted(s.p, s.mode, s.seed)
}
func (s *naiveScorer) probeRemoval(i, k int) score {
	q := s.p.Clone()
	q.Set(i, k, false)
	sc, _ := s.scoreOf(q)
	return sc
}
func (s *naiveScorer) probeAdd(i, k int) (score, bool) {
	q := s.p.Clone()
	q.Set(i, k, true)
	return s.scoreOf(q)
}
func (s *naiveScorer) probeBundle(adds []chaos.Inst) (score, bool) {
	q := s.p.Clone()
	for _, a := range adds {
		q.Set(a.Svc, a.Node, true)
	}
	return s.scoreOf(q)
}
func (s *naiveScorer) set(i, k int, val bool) { s.p.Set(i, k, val) }
func (s *naiveScorer) placement() model.Placement {
	return s.p
}

// runNaive is Run scored through naiveScorer, on a copy of the masked
// placement (which is p itself when the mask removes none of its instances).
func runNaive(in *model.Instance, m *chaos.Mask, p model.Placement, cfg Config) *Result {
	min := m.Instance(in)
	dmg, masked := Classify(in, m, p)
	return repairWith(min, m, dmg, &naiveScorer{in: min, p: masked.Clone(), mode: cfg.Mode, seed: cfg.Seed})
}
