package experiments

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/stats"
)

// TestRunSweepDeterministic pins the executor's two contracts on a synthetic
// sweep: results are ordered by point index whatever the worker count, and
// each point's seed is the documented pure function of root seed and index.
func TestRunSweepDeterministic(t *testing.T) {
	const n = 17
	type point struct {
		I    int
		Seed int64
	}
	fn := func(i int, seed int64) point { return point{i, seed} }
	for _, workers := range []int{1, 2, 4, 9} {
		opts := Options{Seed: 42, Workers: workers}
		got := runSweep(opts, "synthetic", n, fn)
		for i, p := range got {
			if p.I != i {
				t.Fatalf("workers=%d: slot %d holds point %d", workers, i, p.I)
			}
			want := stats.SplitSeed(42, fmt.Sprintf("synthetic/%d", i))
			if p.Seed != want {
				t.Fatalf("workers=%d point %d: seed %d, want %d", workers, i, p.Seed, want)
			}
		}
	}
}

// maskCols blanks wall-clock columns so parallel-vs-serial comparisons test
// the deterministic cells only.
func maskCols(tb *Table, cols ...string) [][]string {
	mask := map[int]bool{}
	for i, h := range tb.Header {
		for _, c := range cols {
			if h == c {
				mask[i] = true
			}
		}
	}
	out := make([][]string, len(tb.Rows))
	for r, row := range tb.Rows {
		cp := append([]string(nil), row...)
		for i := range cp {
			if mask[i] {
				cp[i] = "-"
			}
		}
		out[r] = cp
	}
	return out
}

// TestSweepParallelMatchesSerial proves the figure generators emit identical
// tables under the serial and parallel executors — runtime columns excepted,
// as those measure wall clock by design. Fig7's OPT points are proven
// optimal at these scales, so its objective columns must match too. Fig2 is
// exempt: its bb_nodes column counts a schedule-dependent search tree.
func TestSweepParallelMatchesSerial(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		serial := Options{Short: true, Seed: seed, Workers: 1}
		par := Options{Short: true, Seed: seed, Workers: 4}

		a, b := Fig8(serial), Fig8(par)
		if !reflect.DeepEqual(maskCols(a, "runtime_s"), maskCols(b, "runtime_s")) {
			t.Fatalf("seed %d: fig8 parallel diverges from serial:\n%v\nvs\n%v",
				seed, maskCols(a, "runtime_s"), maskCols(b, "runtime_s"))
		}

		su, sn := Fig7(serial)
		pu, pn := Fig7(par)
		for _, tb := range [][2]*Table{{su, pu}, {sn, pn}} {
			a, b := maskCols(tb[0], "opt_runtime_s", "socl_runtime_s"), maskCols(tb[1], "opt_runtime_s", "socl_runtime_s")
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("seed %d: %s parallel diverges from serial:\n%v\nvs\n%v", seed, tb[0].ID, a, b)
			}
		}

		f9s, f9p := Fig9(serial), Fig9(par)
		if !reflect.DeepEqual(f9s.Rows, f9p.Rows) {
			t.Fatalf("seed %d: fig9 parallel diverges from serial", seed)
		}

		s1, s2 := Fig10(serial)
		p1, p2 := Fig10(par)
		if !reflect.DeepEqual(s1.Rows, p1.Rows) || !reflect.DeepEqual(s2.Rows, p2.Rows) {
			t.Fatalf("seed %d: fig10 parallel diverges from serial", seed)
		}
	}
}
