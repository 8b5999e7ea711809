package repair

import (
	"testing"

	"repro/internal/baselines"
	"repro/internal/chaos"
	"repro/internal/config"
)

var benchResult *Result

// BenchmarkRun times one repair of a JDR placement after a mixed fault
// burst: two hosting nodes crash, a link degrades to a quarter of its
// bandwidth and the last node loses half its storage.
func BenchmarkRun(b *testing.B) {
	in := config.Paper(10, 40, 1).MustBuild()
	p := baselines.JDR(in)
	m := chaos.NewMask(in.Graph)
	apply := func(ev chaos.Event) {
		if err := m.Apply(ev); err != nil {
			b.Fatal(err)
		}
	}
	crashed := 0
	for k := 0; k < in.V() && crashed < 2; k++ {
		for i := range p.X {
			if p.Has(i, k) {
				apply(chaos.Event{Kind: chaos.NodeCrash, Node: k})
				crashed++
				break
			}
		}
	}
	l := m.Links()[0]
	apply(chaos.Event{Kind: chaos.LinkDegrade, A: l.A, B: l.B, Factor: 0.25})
	apply(chaos.Event{Kind: chaos.StorageShrink, Node: in.V() - 1, Factor: 0.5})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchResult = Run(in, m, p, Config{})
	}
}
