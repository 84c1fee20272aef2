// Package experiments contains one runner per table and figure of the
// HetArch paper's evaluation section. Each runner executes the relevant
// modules and prints the same rows/series the paper reports, so the whole
// evaluation can be regenerated from the command line (cmd/hetarch) or
// benchmarked (bench_test.go).
package experiments

import (
	"fmt"
	"io"

	"hetarch/internal/obs/stats"
)

// Scale controls the Monte Carlo effort of every runner. Full reproduces
// paper-quality statistics; Quick is for tests and benchmarks.
type Scale struct {
	Shots          int     // stabilizer Monte Carlo shots per point
	DistillHorizon float64 // µs of simulated time per distillation point
	MaxDistance    int     // largest distance in the Fig 7 sweep (Fig 6 caps at 13)

	// Workers is the mc engine's goroutine count for every shot-shaped
	// runner (<= 0 means runtime.NumCPU()). Results are worker-count
	// independent — the engine's deterministic seed streams guarantee
	// bit-identical pooled counts at any setting.
	Workers int
}

// Full returns publication-scale settings.
func Full() Scale {
	return Scale{Shots: 20000, DistillHorizon: 50000, MaxDistance: 17}
}

// Quick returns CI-scale settings.
func Quick() Scale {
	return Scale{Shots: 1500, DistillHorizon: 5000, MaxDistance: 5}
}

// ApproxShots estimates the total Monte Carlo shots an experiment will
// sample at the given scale — the denominator the -progress heartbeat uses
// for its ETA. Returns 0 for experiments whose effort is not shot-shaped
// (event-driven or density-matrix runners) or not known in advance; the
// heartbeat then reports rate only.
func ApproxShots(name string, sc Scale) int64 {
	shots := int64(sc.Shots)
	ptShots := shots / 2
	if ptShots < 500 {
		ptShots = 500
	}
	var distances int64
	for d := 5; d <= sc.MaxDistance; d += 2 {
		distances++
	}
	if distances == 0 {
		distances = 2 // fallback {3,5} sweep
	}
	switch name {
	case "fig6":
		// 6 alphas x 2 columns x 2 bases.
		return 24 * shots
	case "fig7":
		// 5 ratios x distances x 2 bases.
		return 10 * distances * shots
	case "fig9":
		// 5 codes x 6 storage lifetimes x 2 bases.
		return 60 * shots
	case "table3":
		// 5 codes x (het+hom) x 2 bases, plus the 5-point pseudothreshold
		// grid x 2 bases on the 3 non-lattice-native codes.
		return 20*shots + 30*ptShots
	default:
		return 0
	}
}

// Row is one printed result row: a label plus named numeric columns.
// CIs, when present, parallels Values: CIs[i] is the 95% Wilson confidence
// interval on Values[i], nil for columns that are not sampled estimates
// (sweep parameters, ratios of estimates, deterministic values).
type Row struct {
	Label  string
	Values []float64
	CIs    []*stats.Interval `json:"CIs,omitempty"`
}

// ci returns the row's interval for column i, or nil.
func (r Row) ci(i int) *stats.Interval {
	if i < len(r.CIs) {
		return r.CIs[i]
	}
	return nil
}

// Table is a printable experiment result.
type Table struct {
	Title   string
	Columns []string
	Rows    []Row
}

// Fprint renders the table.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s ==\n", t.Title)
	fmt.Fprintf(w, "%-28s", "")
	for _, c := range t.Columns {
		fmt.Fprintf(w, "%14s", c)
	}
	fmt.Fprintln(w)
	for _, r := range t.Rows {
		fmt.Fprintf(w, "%-28s", r.Label)
		for _, v := range r.Values {
			fmt.Fprintf(w, "%14.5g", v)
		}
		fmt.Fprintln(w)
		hasCI := false
		for i := range r.Values {
			if r.ci(i) != nil {
				hasCI = true
			}
		}
		if !hasCI {
			continue
		}
		// Continuation line: 95% Wilson half-widths under the estimates.
		fmt.Fprintf(w, "%-28s", "  (95% CI)")
		for i := range r.Values {
			if iv := r.ci(i); iv != nil {
				fmt.Fprintf(w, "%14s", fmt.Sprintf("±%.2g", iv.Half()))
			} else {
				fmt.Fprintf(w, "%14s", "")
			}
		}
		fmt.Fprintln(w)
	}
}
