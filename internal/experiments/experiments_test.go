package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"

	"hetarch/internal/obs"
	"hetarch/internal/obs/stats"
)

func TestTable1Prints(t *testing.T) {
	var buf bytes.Buffer
	Table1(&buf)
	out := buf.String()
	for _, want := range []string{"fixed-frequency-qubit", "3d-multimode-resonator", "Table 1"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}

func TestTable2Prints(t *testing.T) {
	var buf bytes.Buffer
	if err := Table2(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Register", "ParCheck", "SeqOp", "USC", "design rules OK", "fidelity"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
	if strings.Contains(out, "VIOLATIONS") {
		t.Fatal("standard cells must not violate design rules")
	}
}

func TestFig3Shape(t *testing.T) {
	tab, err := Fig3(context.Background(), Quick(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) < 40 {
		t.Fatalf("trace too short: %d rows", len(tab.Rows))
	}
	// After warm-up, the heterogeneous trace should be below homogeneous
	// most of the time.
	hetBetter, samples := 0, 0
	for _, r := range tab.Rows[len(tab.Rows)/2:] {
		het, hom := r.Values[1], r.Values[2]
		if het == 1 || hom == 1 {
			continue // empty register sample
		}
		samples++
		if het < hom {
			hetBetter++
		}
	}
	if samples == 0 || hetBetter*3 < samples*2 {
		t.Fatalf("heterogeneous should dominate the trace: %d/%d", hetBetter, samples)
	}
}

func TestFig4Shape(t *testing.T) {
	sc := Quick()
	sc.DistillHorizon = 20000
	tab, err := Fig4(context.Background(), sc, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 5 || len(tab.Columns) != 7 {
		t.Fatalf("unexpected table shape %dx%d", len(tab.Rows), len(tab.Columns))
	}
	// At 1000 kHz (row 2): Ts = 12.5 ms (column index 4) must beat the
	// homogeneous baseline (last column) by at least 2x.
	row := tab.Rows[2]
	ts125 := row.Values[4]
	hom := row.Values[len(row.Values)-1]
	if ts125 < 2*hom {
		t.Fatalf("Ts=12.5ms (%v) should deliver at least 2x hom (%v) at 1 MHz", ts125, hom)
	}
	// Rates grow with the generation rate for the long-lived memories.
	if tab.Rows[0].Values[4] > tab.Rows[2].Values[4] {
		t.Fatal("delivered rate should grow with generation rate")
	}
}

func TestFig6Shape(t *testing.T) {
	sc := Quick()
	tab, err := Fig6(context.Background(), sc, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 6 {
		t.Fatalf("alpha rows: %d", len(tab.Rows))
	}
	// At the largest alpha, boosting data coherence must beat boosting
	// ancilla coherence.
	last := tab.Rows[len(tab.Rows)-1]
	if last.Values[1] >= last.Values[2] {
		t.Fatalf("Tcd boost (%v) should beat Tca boost (%v)", last.Values[1], last.Values[2])
	}
	// And both should beat the alpha=1 homogeneous point.
	first := tab.Rows[0]
	if last.Values[1] >= first.Values[1] {
		t.Fatal("coherence scaling should reduce the logical error rate")
	}
}

// TestFig6StaysAtD13 guards the split between the two surface-code sweeps:
// Full() raises MaxDistance to extend Fig 7, and Fig 6 must stay at the
// paper's d=13 all the same.
func TestFig6StaysAtD13(t *testing.T) {
	sc := Full()
	if sc.MaxDistance <= 13 {
		t.Fatalf("Full().MaxDistance = %d; this test needs a distance above 13", sc.MaxDistance)
	}
	sc.Shots = 64
	tab, err := Fig6(context.Background(), sc, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tab.Title, "(d=13)") {
		t.Fatalf("Fig 6 title %q, want d=13 at MaxDistance %d", tab.Title, sc.MaxDistance)
	}
}

func TestFig7Shape(t *testing.T) {
	sc := Quick()
	tab, err := Fig7(context.Background(), sc, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) == 0 || len(tab.Columns) != 5 {
		t.Fatal("unexpected table shape")
	}
	// Raising the ratio helps at fixed distance.
	for _, r := range tab.Rows {
		if r.Values[len(r.Values)-1] >= r.Values[0] {
			t.Fatalf("%s: ratio=8 (%v) should beat ratio=1 (%v)",
				r.Label, r.Values[len(r.Values)-1], r.Values[0])
		}
	}
}

func TestFig9Shape(t *testing.T) {
	sc := Quick()
	tab, err := Fig9(context.Background(), sc, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 5 {
		t.Fatal("expected five codes")
	}
	for _, r := range tab.Rows {
		if r.Values[len(r.Values)-1] > r.Values[0] {
			t.Fatalf("%s: logical rate should not grow with Ts", r.Label)
		}
	}
	// Reed-Muller is the most demanding code on the module.
	rm := tab.Rows[0]
	for _, r := range tab.Rows[1:] {
		if r.Values[0] > rm.Values[0] {
			t.Fatalf("Reed-Muller should be the hardest code (vs %s)", r.Label)
		}
	}
}

func TestTable3Shape(t *testing.T) {
	sc := Quick()
	tab, err := Table3(context.Background(), sc, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 5 {
		t.Fatal("expected five codes")
	}
	for _, r := range tab.Rows {
		reduction := r.Values[3]
		switch r.Label {
		case "Surface-d3", "Surface-d4":
			if reduction >= 1 {
				t.Errorf("%s: homogeneous lattice should win (got %.2fx)", r.Label, reduction)
			}
		default:
			if reduction <= 1 {
				t.Errorf("%s: heterogeneous module should win (got %.2fx)", r.Label, reduction)
			}
			// Pseudothresholds exist for Steane and the color code; the
			// Reed-Muller code never breaks even under this noise model
			// and legitimately reports 0 ("—").
			if r.Label != "Reed-Muller" && r.Values[0] <= 0 {
				t.Errorf("%s: missing pseudothreshold", r.Label)
			}
		}
	}
}

func TestFig12Shape(t *testing.T) {
	sc := Quick()
	tab, err := Fig12(context.Background(), sc, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 5 || len(tab.Columns) != 3 {
		t.Fatal("unexpected shape")
	}
	for col := 0; col < 3; col++ {
		first := tab.Rows[0].Values[col]
		last := tab.Rows[len(tab.Rows)-1].Values[col]
		if last > first {
			t.Fatalf("column %d: CT error should not grow with Ts", col)
		}
	}
}

func TestTable4Shape(t *testing.T) {
	sc := Quick()
	tab, err := Table4(context.Background(), sc, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 10 { // C(5,2) pairs
		t.Fatalf("expected 10 pairs, got %d", len(tab.Rows))
	}
	for _, r := range tab.Rows {
		het, hom := r.Values[0], r.Values[1]
		if het > hom {
			t.Errorf("%s: het (%v) should not exceed hom (%v)", r.Label, het, hom)
		}
	}
}

// TestDSECacheWorks pins the paper's "characterize once" claim: the
// 70-point sweep over 14 distinct register cells requests one
// characterization per point and simulates each cell exactly once, at any
// worker count, because workers that reach a cell together share one
// simulation. No test in this package calls t.Parallel, so the
// process-wide counters read here are this sweep's alone.
func TestDSECacheWorks(t *testing.T) {
	misses := obs.C("core.characterize.misses")
	for _, workers := range []int{1, 4} {
		misses0 := misses.Value()
		r, err := DSE(context.Background(), workers)
		if err != nil {
			t.Fatal(err)
		}
		sims := misses.Value() - misses0
		if len(r.Results) != 70 || r.Calls != 70 || r.Hits != 56 || sims != 14 {
			t.Fatalf("workers=%d: %d points, %d calls, %d hits, %d simulations; want 70, 70, 56, 14",
				workers, len(r.Results), r.Calls, r.Hits, sims)
		}
		if len(r.Front) == 0 {
			t.Fatalf("workers=%d: empty Pareto front", workers)
		}
	}
}

func TestRowCIsPopulated(t *testing.T) {
	sc := Quick()
	sc.Shots = 256
	sc.MaxDistance = 3
	tab, err := Fig6(context.Background(), sc, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range tab.Rows {
		if r.ci(0) != nil {
			t.Fatalf("%s: the alpha sweep parameter must not carry a CI", r.Label)
		}
		for i := 1; i <= 2; i++ {
			iv := r.ci(i)
			if iv == nil {
				t.Fatalf("%s: column %d missing its confidence interval", r.Label, i)
			}
			if iv.Lo < 0 || iv.Hi <= iv.Lo {
				t.Fatalf("%s: degenerate interval %+v", r.Label, iv)
			}
		}
	}
	// Text rendering carries a ± continuation line; JSON carries lo/hi.
	var buf bytes.Buffer
	tab.Fprint(&buf)
	if !strings.Contains(buf.String(), "(95% CI)") || !strings.Contains(buf.String(), "±") {
		t.Fatalf("Fprint lost the error bars:\n%s", buf.String())
	}
	raw, err := json.Marshal(tab)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), `"lo"`) || !strings.Contains(string(raw), `"hi"`) {
		t.Fatalf("JSON output lost the error bars:\n%s", raw)
	}
}

func TestFprintSkipsCILineWhenAbsent(t *testing.T) {
	tab := &Table{Title: "t", Columns: []string{"a"}, Rows: []Row{
		{Label: "x", Values: []float64{1}},
		{Label: "y", Values: []float64{2}, CIs: []*stats.Interval{{Lo: 1.5, Hi: 2.5}}},
	}}
	var buf bytes.Buffer
	tab.Fprint(&buf)
	out := buf.String()
	if strings.Count(out, "(95% CI)") != 1 {
		t.Fatalf("expected exactly one CI line:\n%s", out)
	}
}

func TestTableFprint(t *testing.T) {
	tab := &Table{Title: "t", Columns: []string{"a"}, Rows: []Row{{Label: "x", Values: []float64{1}}}}
	var buf bytes.Buffer
	tab.Fprint(&buf)
	if !strings.Contains(buf.String(), "== t ==") || !strings.Contains(buf.String(), "x") {
		t.Fatal("Fprint broken")
	}
}

func TestDeviceStudyShape(t *testing.T) {
	if testing.Short() {
		t.Skip("needs high shot count: the ancilla effect is ~13%")
	}
	sc := Quick()
	sc.Shots = 120000
	tab, err := DeviceStudy(context.Background(), sc, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 {
		t.Fatal("expected four device combinations")
	}
	allTransmon := tab.Rows[0].Values[0]
	fluxAnc := tab.Rows[2].Values[0]
	// The robust effect at these parameters is the ancilla readout: the
	// fluxonium's T1 = 800 µs more than halves the readout flip probability
	// relative to the transmon's 300 µs. (The data-side choice is a genuine
	// T1-vs-T2 tradeoff and can go either way — that ambiguity is the point
	// of the study.)
	if fluxAnc >= allTransmon {
		t.Errorf("fluxonium ancilla (%v) should beat all-transmon (%v)", fluxAnc, allTransmon)
	}
}

func TestCapacitySweepShape(t *testing.T) {
	sc := Quick()
	sc.DistillHorizon = 20000
	tab, err := CapacitySweep(context.Background(), sc, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 6 {
		t.Fatal("expected six capacities")
	}
	// Two slots cannot pipeline multi-round distillation to the target.
	if tab.Rows[0].Values[0] > 1 {
		t.Fatalf("2 slots should starve, delivered %v k/s", tab.Rows[0].Values[0])
	}
	// The paper's six slots capture most of the asymptotic rate.
	six := tab.Rows[3].Values[0]
	twelve := tab.Rows[5].Values[0]
	if six < 0.9*twelve {
		t.Fatalf("6 slots (%v) should reach >=90%% of 12 slots (%v)", six, twelve)
	}
	// Drop fraction falls monotonically with capacity.
	for i := 1; i < len(tab.Rows); i++ {
		if tab.Rows[i].Values[1] > tab.Rows[i-1].Values[1]+1e-9 {
			t.Fatal("drop fraction should fall with capacity")
		}
	}
}

func TestProtocolCheckAllPairs(t *testing.T) {
	var buf bytes.Buffer
	if err := ProtocolCheck(&buf, 7); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "OK") {
		t.Fatal("no pairs verified")
	}
}
