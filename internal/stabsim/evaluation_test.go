package stabsim_test

import (
	"fmt"
	"slices"
	"testing"

	"hetarch/internal/qec"
	"hetarch/internal/splitmix"
	"hetarch/internal/stabsim"
	"hetarch/internal/surface"
	"hetarch/internal/uec"
)

// catGenProbabilities are the event probabilities of the CAT-generator
// circuits (codetelep.SimulateCatGen) in full-scale fig12 and table4 at
// seed 1: the gate error, the bridging EP's infidelity and the idle
// channel's total. They depend on a distillation ensemble run inside
// codetelep.EvaluateContext, so they are listed here, not rebuilt.
var catGenProbabilities = []float64{
	0.01,
	0.005142082928956682, 0.0052841839214065045, 0.005711047428699101,
	0.006422660292914606, 0.013843500243060802, 0.21135329398817515,
	7.649609863263906e-05, 9.899346628752803e-05, 0.00010274296194640042,
	0.0001064924388579358, 0.0001102418970220509, 0.0001139913364389955,
	0.00012149015903145655, 0.00013273825231815972, 0.00014398617688465842,
	0.00014773544758064916, 0.00021296975686305175, 0.00022046758967625424,
	0.0002954417941446186, 0.0005323110072309734, 0.0005510474652490605,
	0.0007383862850545153, 0.0010642442077840042, 0.0011016900594194579,
	0.0014760456177011771, 0.005306140909576096, 0.005492291104604863,
	0.007351235727863975, 0.007611117313428839, 0.00983494654976233,
	0.01020493657127397, 0.010574741644015895, 0.010944361860439317,
	0.011313797312949403, 0.012052114295618754, 0.013158206347743978,
	0.014262640505522645, 0.014630417233425896,
}

// uecCircuits builds the 30 UEC circuits that TestRunContextGolden pins:
// the five evaluation codes, heterogeneous at Ts = 1 and 50 ms and
// homogeneous at 50 ms, in both bases.
func uecCircuits(t *testing.T) []*stabsim.Circuit {
	sc3, _ := qec.Surface(3)
	sc4, _ := qec.Surface(4)
	var cs []*stabsim.Circuit
	for _, c := range []struct {
		code   *qec.Code
		native bool
	}{{qec.ReedMuller15(), false}, {qec.TriColor5(), false}, {qec.Steane(), false}, {sc3, true}, {sc4, true}} {
		for _, cfg := range []struct {
			ts  float64
			het bool
		}{{1, true}, {50, true}, {50, false}} {
			for _, b := range []byte{'Z', 'X'} {
				p := uec.DefaultParams(c.code, cfg.ts, cfg.het)
				p.Basis = b
				p.NativePlacement = c.native && !cfg.het
				e, err := uec.New(p)
				if err != nil {
					t.Fatalf("%s Ts=%v het=%v %c: %v", c.code.Name, cfg.ts, cfg.het, b, err)
				}
				cs = append(cs, e.Circuit)
			}
		}
	}
	return cs
}

// distinctProbabilities appends to ps each event probability of c,
// strictly between 0 and 1, that ps does not hold yet.
func distinctProbabilities(ps []float64, c *stabsim.Circuit) []float64 {
	for i := range c.Ops {
		if p := stabsim.EventProbability(&c.Ops[i]); p > 0 && p < 1 && !slices.Contains(ps, p) {
			ps = append(ps, p)
		}
	}
	return ps
}

// TestGapTableExact checks the gap table of every distinct event
// probability of the evaluation circuits, and of 1e-12, 0.5 and 0.999999,
// against the logarithm the sampler evaluated before it: every draw within
// 4096 of a threshold and 10^5 random draws per probability. The circuits
// are the surface code at d = 3..17 in both bases at every T_CD and T_CA
// point of Figs 6 and 7, the 30 UEC circuits of TestRunContextGolden and
// the CAT generator's. Under -short, which CI runs with the race detector,
// it builds the surface code at d = 3 only (its probabilities do not
// depend on d) and checks 512 draws either side of each threshold and
// 10^4 random draws.
func TestGapTableExact(t *testing.T) {
	ps := []float64{1e-12, 0.5, 0.999999}
	ps = append(ps, catGenProbabilities...)
	for _, c := range uecCircuits(t) {
		ps = distinctProbabilities(ps, c)
	}
	maxD, window, random := 17, uint64(4096), 100000
	if testing.Short() {
		maxD, window, random = 3, 512, 10000
	}
	for d := 3; d <= maxD; d += 2 {
		for _, tcd := range []float64{100, 200, 300, 500, 700, 800, 1000} {
			for _, tca := range []float64{100, 200, 300, 500, 700, 1000} {
				if tcd != 100 && tca != 100 {
					continue
				}
				for _, b := range []byte{'Z', 'X'} {
					p := surface.DefaultParams(d)
					p.TcdMicros, p.TcaMicros, p.Basis = tcd, tca, b
					e, err := surface.New(p)
					if err != nil {
						t.Fatal(err)
					}
					ps = distinctProbabilities(ps, e.Circuit)
				}
			}
		}
	}
	slices.Sort(ps)
	ps = slices.Compact(ps)
	rng := splitmix.New(23)
	for _, p := range ps {
		if err := stabsim.CheckGapTable(p, window, random, rng); err != nil {
			t.Fatal(err)
		}
	}
	t.Logf("%d probabilities from %v to %v", len(ps), ps[0], ps[len(ps)-1])
}

// TestSensitivitiesSingleFault is the single-fault oracle of the reverse
// sweep. On each of the 30 UEC circuits of TestRunContextGolden, every
// compiled site's X and Z words must equal shot 0 of one SampleBatch of a
// copy whose only noise is a certain (p = 1) X or Z error at that site,
// or a certain readout flip for a measurement site. Such a copy draws
// nothing, which the test checks, so the comparison is exact.
func TestSensitivitiesSingleFault(t *testing.T) {
	for ci, c := range uecCircuits(t) {
		s, err := stabsim.CompileSensitivities(c)
		if err != nil {
			t.Fatalf("circuit %d: %v", ci, err)
		}
		sites := stabsim.CompiledSites(s)
		next, nonzero := 0, 0
		check := func(what string, want uint64, d *stabsim.Circuit) {
			t.Helper()
			rng := splitmix.New(1)
			got := stabsim.TransposedShot(stabsim.NewBatchFrameSampler(d, rng).SampleBatch(), 0)
			if got != want {
				t.Fatalf("circuit %d site %d, %s: compiled word %x, single-fault run %x", ci, next, what, want, got)
			}
			if *rng != *splitmix.New(1) {
				t.Fatalf("circuit %d site %d, %s: the single-fault run drew", ci, next, what)
			}
			if want != 0 {
				nonzero++
			}
		}
		for i := range c.Ops {
			op := &c.Ops[i]
			if stabsim.EventProbability(op) == 0 {
				continue
			}
			ts := op.Targets
			step := 1
			if op.Code == stabsim.OpDepolarize2 {
				step = 2
			}
			for k := 0; k < len(ts); k += step {
				if next == len(sites) {
					t.Fatalf("circuit %d: %d sites compiled, op %d has more", ci, len(sites), i)
				}
				w := sites[next]
				switch op.Code {
				case stabsim.OpM, stabsim.OpMR:
					check(fmt.Sprintf("readout of op %d target %d", i, k), w.X, withOneFault(c, i, k, nil))
				default:
					words := [][2]uint64{{w.X, w.Z}, {w.X2, w.Z2}}
					for j, q := range ts[k : k+step] {
						check(fmt.Sprintf("X on qubit %d at op %d", q, i), words[j][0],
							withOneFault(c, i, k, func(d *stabsim.Circuit) { d.XError(1, q) }))
						check(fmt.Sprintf("Z on qubit %d at op %d", q, i), words[j][1],
							withOneFault(c, i, k, func(d *stabsim.Circuit) { d.ZError(1, q) }))
					}
				}
				next++
			}
		}
		if next != len(sites) {
			t.Fatalf("circuit %d: %d sites compiled, %d found", ci, len(sites), next)
		}
		if nonzero == 0 {
			t.Fatalf("circuit %d: every site's words are 0", ci)
		}
	}
}

// withOneFault rebuilds c without its noise: noise ops are dropped and
// every measurement reads out without a flip, one op per target. Only op
// `at` keeps noise: for a noise op, fault adds it in the op's place; for a
// measurement op (fault nil), target k's readout flips with p = 1.
func withOneFault(c *stabsim.Circuit, at, k int, fault func(d *stabsim.Circuit)) *stabsim.Circuit {
	d := stabsim.NewCircuit(c.N)
	for i := range c.Ops {
		op := &c.Ops[i]
		ts := op.Targets
		switch op.Code {
		case stabsim.OpH:
			d.H(ts...)
		case stabsim.OpS:
			d.S(ts...)
		case stabsim.OpSDag:
			d.SDag(ts...)
		case stabsim.OpX:
			d.X(ts...)
		case stabsim.OpY:
			d.Y(ts...)
		case stabsim.OpZ:
			d.Z(ts...)
		case stabsim.OpCX:
			d.CX(ts...)
		case stabsim.OpCZ:
			d.CZ(ts...)
		case stabsim.OpSwap:
			d.Swap(ts...)
		case stabsim.OpM, stabsim.OpMR:
			for j, q := range ts {
				p := 0.0
				if i == at && j == k {
					p = 1
				}
				if op.Code == stabsim.OpM {
					d.MFlip(p, q)
				} else {
					d.MR(p, q)
				}
			}
		case stabsim.OpR:
			d.R(ts...)
		case stabsim.OpDetector:
			d.Detector(op.Recs...)
		case stabsim.OpObservable:
			d.Observable(op.Index, op.Recs...)
		case stabsim.OpTick:
			d.Tick()
		default:
			if i == at {
				fault(d)
			}
		}
	}
	return d
}

// TestNewBatchFrameSamplerAllocs gates sampler construction at four
// allocations (the sampler, its per-op noise state, the word slab and the
// gap-table slab) on the 24-probability homogeneous TriColor lattice
// circuit and on a d=13 surface-code circuit, and SampleBatch at none.
func TestNewBatchFrameSamplerAllocs(t *testing.T) {
	p := uec.DefaultParams(qec.TriColor5(), 50, false)
	lattice, err := uec.New(p)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(distinctProbabilities(nil, lattice.Circuit)); n != 24 {
		t.Fatalf("lattice circuit has %d distinct probabilities, want 24", n)
	}
	planar, err := surface.New(surface.DefaultParams(13))
	if err != nil {
		t.Fatal(err)
	}
	for name, c := range map[string]*stabsim.Circuit{"TriColor5 hom": lattice.Circuit, "surface d=13": planar.Circuit} {
		rng := splitmix.New(1)
		var bs *stabsim.BatchFrameSampler
		if got := testing.AllocsPerRun(5, func() { bs = stabsim.NewBatchFrameSampler(c, rng) }); got != 4 {
			t.Errorf("%s: NewBatchFrameSampler made %v allocations, want 4", name, got)
		}
		if got := testing.AllocsPerRun(20, func() { bs.SampleBatch() }); got != 0 {
			t.Errorf("%s: SampleBatch made %v allocations, want 0", name, got)
		}
	}
}

// TestNewSensitivitySamplerAllocs gates sensitivity sampler construction
// at no more than the frame sampler's four allocations, and SampleBatch at
// none, on the 30 UEC circuits of TestRunContextGolden. A circuit with 64
// detectors plus observables must compile and one with 65 must not.
func TestNewSensitivitySamplerAllocs(t *testing.T) {
	for ci, c := range uecCircuits(t) {
		s, err := stabsim.CompileSensitivities(c)
		if err != nil {
			t.Fatalf("circuit %d: %v", ci, err)
		}
		rng := splitmix.New(1)
		var ss *stabsim.SensitivitySampler
		if got := testing.AllocsPerRun(5, func() { ss = stabsim.NewSensitivitySampler(s, rng) }); got > 4 {
			t.Errorf("circuit %d: NewSensitivitySampler made %v allocations, want at most 4", ci, got)
		}
		if got := testing.AllocsPerRun(20, func() { ss.SampleBatch() }); got != 0 {
			t.Errorf("circuit %d: SampleBatch made %v allocations, want 0", ci, got)
		}
	}
	c := stabsim.NewCircuit(1).M(0).Observable(0, -1)
	for i := 0; i < 63; i++ {
		c.Detector(-1)
	}
	if _, err := stabsim.CompileSensitivities(c); err != nil {
		t.Fatalf("64 signals: %v", err)
	}
	if _, err := stabsim.CompileSensitivities(c.Detector(-1)); err == nil {
		t.Fatal("a circuit with 64 detectors and 1 observable compiled")
	}
}
