package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMeanEmpty(t *testing.T) {
	if Mean(nil) != 0 {
		t.Fatalf("Mean(nil) = %v, want 0", Mean(nil))
	}
}

func TestMeanBasic(t *testing.T) {
	if got := Mean([]float64{1, 2, 3, 4}); !almostEq(got, 2.5) {
		t.Fatalf("Mean = %v, want 2.5", got)
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 7, 2}
	if Min(xs) != -1 {
		t.Fatalf("Min = %v", Min(xs))
	}
	if Max(xs) != 7 {
		t.Fatalf("Max = %v", Max(xs))
	}
}

func TestMinPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Min(nil) did not panic")
		}
	}()
	Min(nil)
}

func TestMedianPercentile(t *testing.T) {
	if got := Median([]float64{1, 3, 2}); !almostEq(got, 2) {
		t.Fatalf("Median odd = %v", got)
	}
	if got := Median([]float64{1, 2, 3, 4}); !almostEq(got, 2.5) {
		t.Fatalf("Median even = %v", got)
	}
	xs := []float64{10, 20, 30, 40, 50}
	if got := Percentile(xs, 0); got != 10 {
		t.Fatalf("P0 = %v", got)
	}
	if got := Percentile(xs, 100); got != 50 {
		t.Fatalf("P100 = %v", got)
	}
	if got := Percentile(xs, 25); !almostEq(got, 20) {
		t.Fatalf("P25 = %v", got)
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	xs := []float64{5, 1, 3}
	Percentile(xs, 50)
	if xs[0] != 5 || xs[1] != 1 || xs[2] != 3 {
		t.Fatalf("input mutated: %v", xs)
	}
}

func TestCosineSimilarity(t *testing.T) {
	if got := CosineSimilarity([]float64{1, 0}, []float64{1, 0}); !almostEq(got, 1) {
		t.Fatalf("identical = %v", got)
	}
	if got := CosineSimilarity([]float64{1, 0}, []float64{0, 1}); !almostEq(got, 0) {
		t.Fatalf("orthogonal = %v", got)
	}
	if got := CosineSimilarity([]float64{0, 0}, []float64{1, 1}); got != 0 {
		t.Fatalf("zero vector = %v", got)
	}
	if got := CosineSimilarity([]float64{1}, []float64{1, 2}); got != 0 {
		t.Fatalf("length mismatch = %v", got)
	}
}

func TestJaccard(t *testing.T) {
	a := map[int]bool{1: true, 2: true}
	b := map[int]bool{2: true, 3: true}
	if got := JaccardSimilarity(a, b); !almostEq(got, 1.0/3.0) {
		t.Fatalf("jaccard = %v", got)
	}
	if got := JaccardSimilarity(nil, nil); got != 1 {
		t.Fatalf("empty sets = %v", got)
	}
}

func TestSplitSeedDistinct(t *testing.T) {
	a := SplitSeed(42, "topology")
	b := SplitSeed(42, "workload")
	c := SplitSeed(43, "topology")
	if a == b || a == c {
		t.Fatalf("seeds collide: %d %d %d", a, b, c)
	}
	if a != SplitSeed(42, "topology") {
		t.Fatal("SplitSeed not deterministic")
	}
}

func TestNewRandDeterministic(t *testing.T) {
	r1, r2 := NewRand(7), NewRand(7)
	for i := 0; i < 10; i++ {
		if r1.Int63() != r2.Int63() {
			t.Fatal("same seed produced different streams")
		}
	}
}

func TestUniformInRange(t *testing.T) {
	r := NewRand(1)
	for i := 0; i < 1000; i++ {
		v := UniformIn(r, 2, 5)
		if v < 2 || v >= 5 {
			t.Fatalf("UniformIn out of range: %v", v)
		}
	}
}

func TestShuffleIsPermutation(t *testing.T) {
	r := NewRand(3)
	xs := []int{1, 2, 3, 4, 5}
	Shuffle(r, xs)
	seen := map[int]bool{}
	for _, x := range xs {
		seen[x] = true
	}
	for i := 1; i <= 5; i++ {
		if !seen[i] {
			t.Fatalf("element %d lost in shuffle: %v", i, xs)
		}
	}
}

// Property: cosine similarity is always within [-1, 1] (up to fp error) and
// symmetric.
func TestCosineSimilarityProperties(t *testing.T) {
	f := func(a, b []float64) bool {
		if len(a) > len(b) {
			a = a[:len(b)]
		} else {
			b = b[:len(a)]
		}
		// Bound magnitudes to avoid float64 overflow in the dot product,
		// which is outside the function's contract.
		for i := range a {
			a[i] = math.Remainder(a[i], 1e6)
			b[i] = math.Remainder(b[i], 1e6)
		}
		s1 := CosineSimilarity(a, b)
		s2 := CosineSimilarity(b, a)
		if math.IsNaN(s1) || math.IsInf(s1, 0) {
			return false
		}
		return almostEq(s1, s2) && s1 <= 1+1e-9 && s1 >= -1-1e-9
	}
	cfg := &quick.Config{MaxCount: 200}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: percentile is monotone in p and bounded by min/max.
func TestPercentileMonotoneProperty(t *testing.T) {
	f := func(raw []float64, p1, p2 float64) bool {
		xs := raw[:0]
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return true
		}
		p1 = math.Mod(math.Abs(p1), 100)
		p2 = math.Mod(math.Abs(p2), 100)
		if p1 > p2 {
			p1, p2 = p2, p1
		}
		v1, v2 := Percentile(xs, p1), Percentile(xs, p2)
		return v1 <= v2+1e-9 && v1 >= Min(xs)-1e-9 && v2 <= Max(xs)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
