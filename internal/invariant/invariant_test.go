package invariant

import (
	"math"
	"testing"

	"repro/internal/model"
)

// TestAlmostEq pins the comparison semantics the floateq analyzer points
// callers at: tolerance inclusive, equal infinities equal, NaN never equal.
func TestAlmostEq(t *testing.T) {
	inf := math.Inf(1)
	cases := []struct {
		a, b, eps float64
		want      bool
	}{
		{1, 1, 0, true},
		{1, 1 + 1e-12, 1e-9, true},
		{1, 1 + 1e-6, 1e-9, false},
		{0, 0, 0, true},
		{inf, inf, 0, true},
		{-inf, -inf, 0, true},
		{inf, -inf, 0, false},
		{inf, 1, 1e9, false},
		{math.NaN(), math.NaN(), 1, false},
	}
	for _, c := range cases {
		if got := AlmostEq(c.a, c.b, c.eps); got != c.want {
			t.Errorf("AlmostEq(%v, %v, %v) = %v, want %v", c.a, c.b, c.eps, got, c.want)
		}
	}
}

// TestDisabledChecksAreInert documents the no-tag contract: with Enabled
// false every check — even on a blatantly violated condition or a stale
// index — must be a no-op, so production binaries cannot panic here.
func TestDisabledChecksAreInert(t *testing.T) {
	if Enabled {
		t.Skip("soclinvariants build: checks are armed by design")
	}
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("disabled invariant check panicked: %v", r)
		}
	}()
	Assert(false, "must not fire")
	Assertf(false, "must not fire (%d)", 1)

	p := model.NewPlacement(1, 2)
	p.Set(0, 0, true)
	ix := model.NewPlacementIndex(p)
	ix.NodesOf(0)    // build the cached list
	p.X[0][1] = true // stale cache — ignored when disabled
	var w IndexWatch
	w.Check(ix)
}
