// Package fl exercises floateq.
package fl

import "sort"

func compareObjectives(a, b float64) bool {
	return a == b // want "exact == on floating-point values"
}

func compareLatencies(a, b float64) bool {
	if a != b { // want "exact != on floating-point values"
		return false
	}
	return true
}

func compareF32(a, b float32) bool {
	return a == b // want "exact == on floating-point values"
}

type scored struct{ zeta float64 }

func tieBreak(xs []scored) bool {
	return xs[0].zeta != xs[1].zeta // want "exact != on floating-point values"
}

func annotatedTieBreak(xs []scored) bool {
	//socllint:ignore floateq fixture: exact tie-break keeps the sort order strict-weak
	return xs[0].zeta != xs[1].zeta
}

const nominal = 1.0

func constantOperand(a float64) bool {
	return a == 0 || nominal != a // ok: a constant operand is a sentinel, not a computed sum
}

func sortTieBreak(xs []scored) {
	sort.Slice(xs, func(i, j int) bool {
		if xs[i].zeta != xs[j].zeta { // ok: comparator tie-break must stay strict-weak
			return xs[i].zeta < xs[j].zeta
		}
		return i < j
	})
	_ = xs[0].zeta == xs[1].zeta // want "exact == on floating-point values"
}

type byZeta []scored

func (q byZeta) Less(i, j int) bool {
	if q[i].zeta != q[j].zeta { // ok: sort.Interface comparator
		return q[i].zeta < q[j].zeta
	}
	return i < j
}

// Less with another signature is not a comparator.
func (q byZeta) LessThan(a, b float64) bool {
	return a != b // want "exact != on floating-point values"
}

// almostEq is an epsilon helper: exact comparison inside it is the point.
func almostEq(a, b, tol float64) bool {
	if a == b { // ok: epsilon helper
		return true
	}
	d := a - b
	if d < 0 {
		d = -d
	}
	return d <= tol
}

// withinEps is recognized by name as a helper too.
func withinEps(a, b float64) bool {
	return a == b // ok: epsilon helper
}

func ints(a, b int) bool {
	return a == b // ok: integers compare exactly
}

func mixed(a float64, b int) bool {
	return a == float64(b) // want "exact == on floating-point values"
}

func viaHelper(a, b float64) bool {
	return almostEq(a, b, 1e-9) // ok: the sanctioned path
}
