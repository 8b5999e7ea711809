package ilp

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"repro/internal/lp"
)

func TestWriteLPKnapsack(t *testing.T) {
	p := lp.NewBoundedProblem(3)
	p.SetObjective(0, -10)
	p.SetObjective(1, -13)
	p.SetObjective(2, -7)
	p.SetBounds(0, 0, 1)
	p.SetBounds(1, 2, math.Inf(1))
	p.AddConstraint(map[int]float64{0: 3, 1: 4, 2: 2}, lp.LE, 6)
	p.AddConstraint(map[int]float64{0: 1}, lp.GE, 0)
	p.AddConstraint(map[int]float64{1: 1, 2: 1}, lp.EQ, 1)
	var buf bytes.Buffer
	if err := WriteBoundedLP(&buf, &BoundedMIP{Prob: p, Integer: []bool{true, true, true}}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"Minimize", "Subject To", "Bounds", "General", "End",
		"- 10 x0", "- 13 x1", "- 7 x2",
		"+ 3 x0 + 4 x1 + 2 x2 <= 6",
		">= 0", "= 1",
		" 0 <= x0 <= 1", " x1 >= 2",
		" x0 x1 x2",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("LP output missing %q:\n%s", want, out)
		}
	}
	// x2 keeps the LP-format default bound [0, +Inf), which is omitted.
	if strings.Contains(out, "<= x2") || strings.Contains(out, "x2 >=") {
		t.Fatalf("default bound emitted:\n%s", out)
	}
}

func TestWriteLPValidation(t *testing.T) {
	if err := WriteBoundedLP(&bytes.Buffer{}, &BoundedMIP{}); err == nil {
		t.Fatal("nil problem accepted")
	}
	p := lp.NewBoundedProblem(2)
	if err := WriteBoundedLP(&bytes.Buffer{}, &BoundedMIP{Prob: p, Integer: []bool{true}}); err == nil {
		t.Fatal("integer length mismatch accepted")
	}
}

func TestWriteLPZeroObjective(t *testing.T) {
	p := lp.NewBoundedProblem(1)
	p.AddConstraint(map[int]float64{0: 1}, lp.LE, 1)
	var buf bytes.Buffer
	if err := WriteBoundedLP(&buf, &BoundedMIP{Prob: p, Integer: []bool{false}}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "obj: 0 x0") {
		t.Fatalf("empty objective not emitted:\n%s", buf.String())
	}
	// No General section without integer markers.
	if strings.Contains(buf.String(), "General") {
		t.Fatal("General section without integers")
	}
}

func TestWriteBoundedLPSoCLModel(t *testing.T) {
	in := soclInstance(3, 3, 1)
	m, vm := BuildSoCLBounded(in)
	var buf bytes.Buffer
	if err := WriteBoundedLP(&buf, m); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Minimize", "Subject To", "Bounds", "General", "End"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing section %q", want)
		}
	}
	// Every binary variable appears: spot-check first and last.
	if !strings.Contains(out, " x0") {
		t.Fatal("x0 missing")
	}
	last := vm.Total - 1
	if !strings.Contains(out, "x"+itoaTest(last)) {
		t.Fatalf("x%d missing", last)
	}
	// The export must parse back structurally: count constraint lines.
	lines := strings.Split(out, "\n")
	constraints := 0
	for _, l := range lines {
		if strings.HasPrefix(strings.TrimSpace(l), "c") && strings.Contains(l, ":") {
			constraints++
		}
	}
	if constraints != len(m.Prob.Constraints) {
		t.Fatalf("exported %d constraints, model has %d", constraints, len(m.Prob.Constraints))
	}
}

func TestWriteBoundedLPValidation(t *testing.T) {
	if err := WriteBoundedLP(&bytes.Buffer{}, &BoundedMIP{}); err == nil {
		t.Fatal("nil problem accepted")
	}
}

func itoaTest(v int) string {
	if v == 0 {
		return "0"
	}
	var b []byte
	for v > 0 {
		b = append([]byte{byte('0' + v%10)}, b...)
		v /= 10
	}
	return string(b)
}
