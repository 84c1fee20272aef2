package hetarch

// One benchmark per table and figure of the paper's evaluation section
// (regenerating each at reduced Monte Carlo scale per iteration), plus the
// ablation benchmarks called out in DESIGN.md. Run everything with:
//
//	go test -bench=. -benchmem
//
// For paper-scale output use the CLI instead: go run ./cmd/hetarch all

import (
	"context"
	"fmt"
	"io"
	"math/bits"
	"math/rand"
	"testing"

	"hetarch/internal/decoder"
	"hetarch/internal/distill"
	"hetarch/internal/experiments"
	"hetarch/internal/qec"
	"hetarch/internal/splitmix"
	"hetarch/internal/stabsim"
	"hetarch/internal/surface"
	"hetarch/internal/uec"
)

func benchScale() experiments.Scale {
	return experiments.Scale{Shots: 400, DistillHorizon: 2000, MaxDistance: 5}
}

func BenchmarkTable1DeviceCatalog(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Table1(io.Discard)
	}
}

func BenchmarkTable2StandardCells(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := experiments.Table2(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig3DistillationTrace(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig3(context.Background(), benchScale(), int64(i))
	}
}

func BenchmarkFig4DistillationRateSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig4(context.Background(), benchScale(), int64(i))
	}
}

func BenchmarkFig6SurfaceCodeCoherenceSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig6(context.Background(), benchScale(), int64(i))
	}
}

func BenchmarkFig7SurfaceCodeDistanceSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig7(context.Background(), benchScale(), int64(i))
	}
}

func BenchmarkFig9UECCodeSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig9(context.Background(), benchScale(), int64(i))
	}
}

func BenchmarkTable3UECvsHomogeneous(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Table3(context.Background(), benchScale(), int64(i))
	}
}

func BenchmarkFig12CodeTeleportationSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig12(context.Background(), benchScale(), int64(i))
	}
}

func BenchmarkTable4CodeTeleportationMatrix(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Table4(context.Background(), benchScale(), int64(i))
	}
}

// BenchmarkDSESpeedup quantifies the simulation-hierarchy payoff: the same
// register-parameter sweep with the characterization cache (HetArch's
// approach) versus re-running the density-matrix characterization at every
// grid point.
func BenchmarkDSESpeedup(b *testing.B) {
	b.Run("cached", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := experiments.DSE(context.Background(), 0); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("uncached", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			// Disable memoization by making every key unique.
			ch := NewCharacterizer()
			points := 0
			_, err := SweepParallel(context.Background(), []SweepParam{
				{Name: "tsMillis", Values: []float64{0.5, 1, 2.5, 5, 12.5, 25, 50}},
				{Name: "modes", Values: []float64{3, 10}},
				{Name: "idleWindowUs", Values: []float64{1, 5, 10, 50, 100}},
			}, 1, func(p SweepPoint) (map[string]float64, error) {
				points++ // one worker: points are evaluated in order
				reg := NewRegister(NewStandardStorage(p["tsMillis"]*1000, int(p["modes"])),
					NewStandardComputeNoReadout(500), 2)
				key := string(rune(points)) // unique per point: cache never hits
				char, err := ch.Characterize(key, reg, CharacterizeRegister)
				if err != nil {
					return nil, err
				}
				return map[string]float64{"err": char.MustOp("load").ErrorRate()}, nil
			})
			if err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationFrameVsTableau compares the Pauli-frame Monte Carlo
// sampler against exact tableau re-execution on the same d=3 surface-code
// memory circuit — the speedup that makes module-level sweeps tractable.
func BenchmarkAblationFrameVsTableau(b *testing.B) {
	p := surface.DefaultParams(3)
	e, err := surface.New(p)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("frame", func(b *testing.B) {
		fs := stabsim.NewFrameSampler(e.Circuit, rand.New(rand.NewSource(1)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			fs.Sample()
		}
	})
	b.Run("tableau", func(b *testing.B) {
		tr := stabsim.NewTableauRunner(e.Circuit, rand.New(rand.NewSource(1)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tr.Sample()
		}
	})
}

// BenchmarkAblationDecoders compares the exact lookup decoder against the
// union-find decoder where both apply (single-sector distance-3 surface
// code syndromes).
func BenchmarkAblationDecoders(b *testing.B) {
	sc3, layout := qec.Surface(3)
	var checks []uint64
	for _, s := range sc3.ZStabs {
		var m uint64
		for _, q := range qec.Support(s) {
			m |= 1 << uint(q)
		}
		checks = append(checks, m)
	}
	rng := rand.New(rand.NewSource(5))
	syndromes := make([]uint64, 1024)
	lk := decoder.NewLookup(sc3.N, checks)
	for i := range syndromes {
		var e uint64
		for q := 0; q < sc3.N; q++ {
			if rng.Float64() < 0.05 {
				e |= 1 << uint(q)
			}
		}
		syndromes[i] = lk.Syndrome(e)
	}
	b.Run("lookup", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			lk.Decode(syndromes[i%len(syndromes)])
		}
	})
	b.Run("unionfind", func(b *testing.B) {
		// Single-layer matching graph over the Z plaquettes.
		g := &decoder.Graph{NumNodes: len(layout.ZPlaquettes)}
		owners := make(map[int][]int)
		for si, plq := range layout.ZPlaquettes {
			for _, q := range plq {
				owners[q] = append(owners[q], si)
			}
		}
		for q := 0; q < sc3.N; q++ {
			switch len(owners[q]) {
			case 1:
				g.Edges = append(g.Edges, decoder.Edge{U: owners[q][0], V: decoder.Boundary})
			case 2:
				g.Edges = append(g.Edges, decoder.Edge{U: owners[q][0], V: owners[q][1]})
			}
		}
		uf := decoder.NewUnionFind(g)
		defects := make([]bool, g.NumNodes)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s := syndromes[i%len(syndromes)]
			for j := range defects {
				defects[j] = s>>uint(j)&1 == 1
			}
			uf.Decode(defects)
		}
	})
}

// BenchmarkAblationSerialVsParallel compares sampling throughput of the
// serialized UEC circuit against the parallel lattice circuit for the same
// code, isolating the cost of the universal module's serialization.
func BenchmarkAblationSerialVsParallel(b *testing.B) {
	code := qec.Steane()
	for _, mode := range []struct {
		name string
		het  bool
	}{{"serialized", true}, {"parallel", false}} {
		b.Run(mode.name, func(b *testing.B) {
			e, err := uec.New(uec.DefaultParams(code, 50, mode.het))
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := e.RunContext(context.Background(), 100, int64(i), 1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDistillationThroughput measures the event-driven simulator's
// speed at the Fig-4 operating point.
func BenchmarkDistillationThroughput(b *testing.B) {
	cfg := distill.DefaultConfig(12.5, true)
	cfg.ConsumeAtThreshold = true
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i)
		distill.NewModule(cfg).Run(2000)
	}
}

// BenchmarkSurfaceSharded measures the mc engine's worker-count scaling on
// the d=5 surface-code memory experiment — 4096 shots sampled and decoded
// per iteration at 1/2/4/8 workers. The counts are bit-identical across the
// sub-benchmarks (the engine's determinism contract); only wall time moves,
// so the scaling curve reads directly off the sub-benchmarks' ns/op.
func BenchmarkSurfaceSharded(b *testing.B) {
	e, err := surface.New(surface.DefaultParams(5))
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := e.RunContext(context.Background(), 4096, int64(i), workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationScheduleOptimizer compares the serialized module with
// and without the register-assignment/schedule optimizer (Section 4.2.2's
// brute-force assignment search).
func BenchmarkAblationScheduleOptimizer(b *testing.B) {
	for _, mode := range []struct {
		name string
		opt  bool
	}{{"naive", false}, {"optimized", true}} {
		b.Run(mode.name, func(b *testing.B) {
			p := uec.DefaultParams(qec.ReedMuller15(), 1, true)
			p.OptimizedSchedule = mode.opt
			e, err := uec.New(p)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(e.CycleDuration, "us/cycle")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := e.RunContext(context.Background(), 100, int64(i), 1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationScalarVsBatchSampling compares the scalar frame sampler
// against the bit-parallel 64-shot batch sampler on the d=13 surface-code
// circuit (per-shot cost).
func BenchmarkAblationScalarVsBatchSampling(b *testing.B) {
	e, err := surface.New(surface.DefaultParams(13))
	if err != nil {
		b.Fatal(err)
	}
	b.Run("scalar", func(b *testing.B) {
		fs := stabsim.NewFrameSampler(e.Circuit, rand.New(rand.NewSource(1)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			fs.Sample()
		}
	})
	b.Run("batch64", func(b *testing.B) {
		bs := stabsim.NewBatchFrameSampler(e.Circuit, splitmix.New(1))
		b.ResetTimer()
		// Each iteration is normalized to one shot: run a 64-shot batch
		// every 64 iterations.
		for i := 0; i < b.N; i += 64 {
			bs.SampleBatch()
		}
	})
}

// BenchmarkAblationFrameVsSensitivitySampling compares, per 64-shot batch
// of the Reed–Muller and Steane heterogeneous circuits at Ts = 50 ms, the
// frame sampler plus the sparse per-shot transpose the uec shard ran on
// its detector and observable words, against the sensitivity sampler,
// which returns per-shot words directly.
func BenchmarkAblationFrameVsSensitivitySampling(b *testing.B) {
	for _, code := range []*qec.Code{qec.ReedMuller15(), qec.Steane()} {
		e, err := uec.New(uec.DefaultParams(code, 50, true))
		if err != nil {
			b.Fatal(err)
		}
		b.Run(code.Name+"/frame", func(b *testing.B) {
			bs := stabsim.NewBatchFrameSampler(e.Circuit, splitmix.New(1))
			var shots [64]uint64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r := bs.SampleBatch()
				shots = [64]uint64{}
				for j, w := range r.Detectors {
					for ; w != 0; w &= w - 1 {
						shots[bits.TrailingZeros64(w)] |= 1 << uint(j)
					}
				}
				for j, w := range r.Observables {
					for ; w != 0; w &= w - 1 {
						shots[bits.TrailingZeros64(w)] |= 1 << uint(len(r.Detectors)+j)
					}
				}
			}
			shotSink = shots
		})
		b.Run(code.Name+"/sensitivity", func(b *testing.B) {
			s, err := stabsim.CompileSensitivities(e.Circuit)
			if err != nil {
				b.Fatal(err)
			}
			ss := stabsim.NewSensitivitySampler(s, splitmix.New(1))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				shotSink = *ss.SampleBatch()
			}
		})
	}
}

// shotSink keeps the ablation's sampled words live.
var shotSink [64]uint64

// BenchmarkAblationDistillationProtocols compares DEJMPS against BBPSSW:
// rounds (and hence raw pairs) needed to reach the 99.5% target from raw
// Werner pairs, reported as rounds-to-target alongside per-round cost.
func BenchmarkAblationDistillationProtocols(b *testing.B) {
	raw := distill.NewWernerPair(0.97)
	roundsTo := func(step func(distill.Pair) distill.Pair) int {
		p := raw
		for r := 1; r <= 16; r++ {
			p = step(p)
			if p.Fidelity() >= 0.995 {
				return r
			}
		}
		return 16
	}
	b.Run("dejmps", func(b *testing.B) {
		var rounds int
		for i := 0; i < b.N; i++ {
			rounds = roundsTo(func(p distill.Pair) distill.Pair {
				out, _ := distill.DEJMPS(p, p, 0)
				return out
			})
		}
		b.ReportMetric(float64(rounds), "rounds-to-0.995")
	})
	b.Run("bbpssw", func(b *testing.B) {
		var rounds int
		for i := 0; i < b.N; i++ {
			rounds = roundsTo(func(p distill.Pair) distill.Pair {
				out, _ := distill.BBPSSW(p, p, 0)
				return out
			})
		}
		b.ReportMetric(float64(rounds), "rounds-to-0.995")
	})
}
