package experiments

import (
	"context"
	"strconv"

	"hetarch/internal/obs/stats"
	"hetarch/internal/obs/trace"
	"hetarch/internal/surface"
)

// perCycleBothBases runs the memory experiment in both bases and returns
// the combined per-cycle logical error rate (Z-sector plus X-sector) with
// its 95% Wilson confidence interval. The interval pools the two equal-shot
// sectors into one binomial sample, maps the per-shot endpoints through the
// monotone per-cycle transform, and scales by two — matching the sum of the
// two sector estimates. Cancelling ctx abandons the point: a partial-shot
// estimate is never folded into a table.
func perCycleBothBases(ctx context.Context, p surface.Params, shots int, seed int64, workers int) (float64, *stats.Interval, error) {
	total := 0.0
	var errs, n int64
	rounds := 1
	for _, basis := range []byte{'Z', 'X'} {
		pp := p
		pp.Basis = basis
		e, err := surface.New(pp)
		if err != nil {
			panic(err)
		}
		r, err := e.RunContext(ctx, shots, seed, workers)
		if err != nil {
			return 0, nil, err
		}
		total += r.PerCycleErrorRate()
		errs += int64(r.LogicalErrors)
		n += int64(r.Shots)
		rounds = r.Rounds
	}
	ci := stats.BinomialCI(errs, n, 0.95).
		Map(func(eps float64) float64 { return surface.PerCycle(eps, rounds) }).
		Scaled(2)
	return total, &ci, nil
}

// Fig6 reproduces the d=13 coherence sweep: logical error per cycle as the
// data-qubit coherence T_CD (or the ancilla coherence T_CA) is scaled to
// α·100 µs while the other stays at 100 µs, plus the homogeneous baseline
// (α = 1). The distance is capped at 13, the paper's, so a larger
// MaxDistance only extends Fig 7; quick scales may reduce it.
func Fig6(ctx context.Context, sc Scale, seed int64) (*Table, error) {
	d := min(13, sc.MaxDistance)
	alphas := []float64{1, 2, 3, 5, 7, 10}
	t := &Table{
		Title:   "Fig 6: logical error per cycle vs coherence scaling (d=" + strconv.Itoa(d) + ")",
		Columns: []string{"alpha", "Tcd=a*100us", "Tca=a*100us"},
	}
	for _, a := range alphas {
		label := "alpha=" + strconv.FormatFloat(a, 'g', -1, 64)
		endRow := trace.Span("run", "run.row", label)
		pd := surface.DefaultParams(d)
		pd.TcdMicros = 100 * a
		pa := surface.DefaultParams(d)
		pa.TcaMicros = 100 * a
		vd, cid, err := perCycleBothBases(ctx, pd, sc.Shots, seed, sc.Workers)
		if err != nil {
			endRow()
			return nil, err
		}
		va, cia, err := perCycleBothBases(ctx, pa, sc.Shots, seed, sc.Workers)
		if err != nil {
			endRow()
			return nil, err
		}
		t.Rows = append(t.Rows, Row{
			Label:  label,
			Values: []float64{a, vd, va},
			CIs:    []*stats.Interval{nil, cid, cia},
		})
		endRow()
	}
	return t, nil
}

// Fig7 reproduces the distance sweep: logical error per cycle for code
// distances up to the scale's maximum, as a function of the ratio
// T_CD/T_CA with T_CA fixed at 100 µs.
func Fig7(ctx context.Context, sc Scale, seed int64) (*Table, error) {
	ratios := []float64{1, 2, 3, 5, 8}
	var distances []int
	for d := 5; d <= sc.MaxDistance; d += 2 {
		distances = append(distances, d)
	}
	if len(distances) == 0 {
		distances = []int{3, 5}
	}
	t := &Table{Title: "Fig 7: logical error per cycle vs distance and Tcd/Tca"}
	for _, r := range ratios {
		t.Columns = append(t.Columns, "ratio="+strconv.FormatFloat(r, 'g', -1, 64))
	}
	for _, d := range distances {
		row := Row{Label: "d=" + strconv.Itoa(d)}
		endRow := trace.Span("run", "run.row", row.Label)
		for _, r := range ratios {
			p := surface.DefaultParams(d)
			p.TcdMicros = 100 * r
			v, ci, err := perCycleBothBases(ctx, p, sc.Shots, seed, sc.Workers)
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
