// Package experiments contains one driver per table/figure of the SoCL
// paper's evaluation (Section V), and one per extension table. Each driver
// builds its workload, runs every algorithm involved, and emits its rows as
// a Table that can be printed as text or CSV.
//
// Registry lists the experiment IDs: the paper's figures (fig2 … fig10) and
// the extensions (ext_budget … ext_overload). The per-experiment index lives
// in DESIGN.md; EXPERIMENTS.md states each entry's claim, and
// claims_test.go checks it against the entry's committed results/*.csv.
package experiments

import (
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/config"
	"repro/internal/model"
	"repro/internal/sim"
)

// Options configures a driver run.
type Options struct {
	// Short shrinks every sweep for quick runs (CI, go test, benches).
	Short bool
	// Seed is the root seed; all randomness derives from it.
	Seed int64
	// OptTimeLimit caps each exact-optimizer solve (fig2/fig7). Zero means
	// 30 s (full) / 3 s (short).
	OptTimeLimit time.Duration
	// OutDir, when non-empty, receives one CSV per table.
	OutDir string
	// Workers bounds the sweep worker pool (runSweep) AND the exact solver's
	// internal branch-and-bound pool (ilp.Options.Workers for the Fig2/Fig7
	// OPT columns): 0 means GOMAXPROCS, 1 forces serial execution. Parallel
	// and serial runs produce identical tables apart from wall-clock columns
	// and fig2's search-tree size (bb_nodes); see sweep.go and DESIGN.md §6
	// for the two determinism contracts.
	Workers int
	// Shards, when positive, overrides the per-point region count of the
	// ext_scale clustered substrates (the -shards flag). Zero keeps each
	// sweep point's default.
	Shards int
}

func (o Options) optLimit() time.Duration {
	if o.OptTimeLimit > 0 {
		return o.OptTimeLimit
	}
	if o.Short {
		return 3 * time.Second
	}
	return 30 * time.Second
}

// Table is a printable experiment result.
type Table struct {
	ID     string // experiment id, e.g. "fig7a"
	Title  string
	Header []string
	Rows   [][]string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Fprint renders the table as aligned text.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			w := 0
			if i < len(widths) {
				w = widths[i]
			}
			parts[i] = fmt.Sprintf("%-*s", w, c)
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.Header)
	for _, row := range t.Rows {
		line(row)
	}
	fmt.Fprintln(w)
}

// WriteCSV writes the table to dir/<id>.csv.
func (t *Table) WriteCSV(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, t.ID+".csv"))
	if err != nil {
		return err
	}
	err = csv.NewWriter(f).WriteAll(append([][]string{t.Header}, t.Rows...))
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// Emit prints the tables and, when OutDir is set, writes their CSVs.
func Emit(w io.Writer, opts Options, tables ...*Table) error {
	for _, t := range tables {
		t.Fprint(w)
		if opts.OutDir != "" {
			if err := t.WriteCSV(opts.OutDir); err != nil {
				return err
			}
		}
	}
	return nil
}

// buildInstance builds the paper regime's instance (config.Paper) at the
// given size and seed.
func buildInstance(nodes, users int, seed int64) *model.Instance {
	return config.Paper(nodes, users, seed).MustBuild()
}

func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func f3(v float64) string { return fmt.Sprintf("%.3f", v) }
func sec(d time.Duration) string {
	return fmt.Sprintf("%.4f", d.Seconds())
}

// partialSlots reports how many slots of a (possibly partial) run completed,
// for mid-run failure diagnostics; sim.Run returns the partial result
// alongside its error.
func partialSlots(r *sim.Result) int {
	if r == nil {
		return 0
	}
	return len(r.Records)
}
