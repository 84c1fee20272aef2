package experiments

import (
	"context"
	"fmt"
	"strconv"

	"hetarch/internal/obs/stats"
	"hetarch/internal/obs/trace"
	"hetarch/internal/qec"
	"hetarch/internal/uec"
)

// evalCode describes one code entry of the Section 4.2.2 evaluation.
type evalCode struct {
	Name   string
	Code   *qec.Code
	Native bool // lattice-native for the homogeneous baseline
}

// evaluationCodes returns the five codes of Fig 9 / Table 3. The paper's
// 17-qubit 4.8.8 color code is represented by the verified [[19,1,5]]
// 6.6.6 triangular color code (see DESIGN.md).
func evaluationCodes() []evalCode {
	sc3, _ := qec.Surface(3)
	sc4, _ := qec.Surface(4)
	return []evalCode{
		{"Reed-Muller", qec.ReedMuller15(), false},
		{"TriColor-d5", qec.TriColor5(), false},
		{"Steane", qec.Steane(), false},
		{"Surface-d3", sc3, true},
		{"Surface-d4", sc4, true},
	}
}

// combinedUEC returns the Z-sector plus X-sector logical error rate of the
// module for one code, with its 95% Wilson confidence interval (the two
// equal-shot sectors pooled into one binomial sample, scaled by two to
// match the sum of the sector estimates).
func combinedUEC(ctx context.Context, code *qec.Code, tsMillis float64, het, native bool, shots int, seed int64, workers int) (float64, *stats.Interval, error) {
	total := 0.0
	var errs, n int64
	for _, basis := range []byte{'Z', 'X'} {
		p := uec.DefaultParams(code, tsMillis, het)
		p.Basis = basis
		p.NativePlacement = native
		e, err := uec.New(p)
		if err != nil {
			return 0, nil, fmt.Errorf("%s: %w", code.Name, err)
		}
		r, err := e.RunContext(ctx, shots, seed, workers)
		if err != nil {
			return 0, nil, err
		}
		total += r.LogicalErrorRate()
		errs += int64(r.LogicalErrors)
		n += int64(r.Shots)
	}
	ci := stats.BinomialCI(errs, n, 0.95).Scaled(2)
	return total, &ci, nil
}

// Fig9 reproduces the universal-error-correction sweep: logical error rate
// of each code on the heterogeneous UEC module as a function of the storage
// lifetime Ts.
func Fig9(ctx context.Context, sc Scale, seed int64) (*Table, error) {
	tsValues := []float64{1, 2.5, 5, 10, 25, 50}
	t := &Table{Title: "Fig 9: UEC logical error rate vs storage lifetime Ts"}
	for _, ts := range tsValues {
		t.Columns = append(t.Columns, "Ts="+strconv.FormatFloat(ts, 'g', -1, 64)+"ms")
	}
	for _, c := range evaluationCodes() {
		endRow := trace.Span("run", "run.row", c.Name)
		row := Row{Label: c.Name}
		for _, ts := range tsValues {
			v, ci, err := combinedUEC(ctx, c.Code, ts, true, false, sc.Shots, seed, sc.Workers)
			if err != nil {
				endRow()
				return nil, err
			}
			row.Values = append(row.Values, v)
			row.CIs = append(row.CIs, ci)
		}
		t.Rows = append(t.Rows, row)
		endRow()
	}
	return t, nil
}

// Table3 reproduces the per-code comparison at Ts = 50 ms: pseudothreshold,
// heterogeneous and homogeneous logical error rates, and the reduction
// factor (hom/het; values below 1 mean the homogeneous lattice wins, as for
// the lattice-native surface codes).
func Table3(ctx context.Context, sc Scale, seed int64) (*Table, error) {
	t := &Table{
		Title:   "Table 3: UEC vs homogeneous lattice (Ts = 50 ms)",
		Columns: []string{"PT", "het", "hom", "hom/het"},
	}
	ptShots := sc.Shots / 2
	if ptShots < 500 {
		ptShots = 500
	}
	for _, c := range evaluationCodes() {
		endRow := trace.Span("run", "run.row", c.Name)
		het, hetCI, err := combinedUEC(ctx, c.Code, 50, true, false, sc.Shots, seed, sc.Workers)
		if err != nil {
			endRow()
			return nil, err
		}
		hom, homCI, err := combinedUEC(ctx, c.Code, 50, false, c.Native, sc.Shots, seed, sc.Workers)
		if err != nil {
			endRow()
			return nil, err
		}
		pt := 0.0
		if !c.Native {
			// Pseudothresholds are reported for the serialized module on
			// the non-lattice-native codes (the paper marks the surface
			// codes "—": their figure of merit is the threshold).
			v, ok, err := uec.PseudothresholdContext(ctx, uec.DefaultParams(c.Code, 50, true), ptShots, seed, sc.Workers)
			if err != nil {
				endRow()
				return nil, err
			}
			if ok {
				pt = v
			}
		}
		t.Rows = append(t.Rows, Row{
			Label:  c.Name,
			Values: []float64{pt, het, hom, hom / het},
			CIs:    []*stats.Interval{nil, hetCI, homCI, nil},
		})
		endRow()
	}
	return t, nil
}
