package surface

import (
	"context"
	"math"

	"hetarch/internal/decoder"
	"hetarch/internal/mc"
	"hetarch/internal/obs"
	"hetarch/internal/obs/trace"
	"hetarch/internal/splitmix"
	"hetarch/internal/stabsim"
)

// Monte Carlo telemetry. Shots are added once per 64-shot batch (so the
// progress heartbeat sees movement mid-run) and errors once per worker;
// both are negligible against the sampling and decoding they count.
var (
	surfShots  = obs.C("surface.shots")
	surfErrors = obs.C("surface.logical_errors")
)

// buildGraph constructs the space–time matching graph for the basis-type
// detectors: one node per (stabilizer, detector layer), time-like edges for
// measurement errors, space-like edges for data errors (boundary edges where
// a data qubit touches only one basis-type plaquette). Edges crossing the
// logical operator's support carry the observable mask.
func (e *Experiment) buildGraph() {
	p := e.Params
	var basisPlaq [][]int
	if p.Basis == 'Z' {
		basisPlaq = e.layout.ZPlaquettes
	} else {
		basisPlaq = e.layout.XPlaquettes
	}
	numBasis := len(basisPlaq)
	layers := p.Rounds + 1 // per-round detectors plus the closing layer

	g := &decoder.Graph{NumNodes: numBasis * layers}
	node := func(stab, layer int) int { return layer*numBasis + stab }

	// Time-like edges (measurement errors).
	for s := 0; s < numBasis; s++ {
		for r := 0; r+1 < layers; r++ {
			g.Edges = append(g.Edges, decoder.Edge{U: node(s, r), V: node(s, r+1)})
		}
	}

	// Space-like edges (data errors). Map each data qubit to the basis
	// plaquettes containing it.
	logical := e.code.LogicalZ
	if p.Basis == 'X' {
		logical = e.code.LogicalX
	}
	inLogical := make([]bool, e.code.N)
	for q := 0; q < e.code.N; q++ {
		if logical.LetterAt(q) != 'I' {
			inLogical[q] = true
		}
	}
	owners := make([][]int, e.code.N)
	for si, plq := range basisPlaq {
		for _, q := range plq {
			owners[q] = append(owners[q], si)
		}
	}
	for q := 0; q < e.code.N; q++ {
		var obs uint64
		if inLogical[q] {
			obs = 1
		}
		for r := 0; r < layers; r++ {
			switch len(owners[q]) {
			case 1:
				g.Edges = append(g.Edges, decoder.Edge{U: node(owners[q][0], r), V: decoder.Boundary, ObsMask: obs})
			case 2:
				g.Edges = append(g.Edges, decoder.Edge{U: node(owners[q][0], r), V: node(owners[q][1], r), ObsMask: obs})
			}
		}
	}
	// Space-time diagonal ("hook-timing") edges are deliberately omitted:
	// with an unweighted union-find decoder they dilute matching in the
	// idle-dominated regimes of Figs. 6-7 (measured: d=13 logical error
	// nearly doubles), while helping only marginally under pure gate noise.
	// A weighted decoder over a full detector-error model would use them.
	e.Graph = g
}

// Result summarizes a Monte Carlo run.
type Result struct {
	Shots         int
	LogicalErrors int
	Rounds        int
}

// ShotErrorRate returns the per-shot logical error probability.
func (r Result) ShotErrorRate() float64 {
	return float64(r.LogicalErrors) / float64(r.Shots)
}

// PerCycleErrorRate converts the per-shot rate to a per-cycle rate using the
// standard (1−2ε) compounding convention.
func (r Result) PerCycleErrorRate() float64 {
	return PerCycle(r.ShotErrorRate(), r.Rounds)
}

// PerCycle converts a per-shot logical error rate over the given number of
// syndrome rounds into a per-cycle rate via the (1−2ε) compounding
// convention. It is monotone in eps, which lets confidence-interval
// endpoints be mapped through it directly.
func PerCycle(eps float64, rounds int) float64 {
	if eps >= 0.5 {
		return 0.5
	}
	return (1 - math.Pow(1-2*eps, 1/float64(rounds))) / 2
}

// RunContext samples the experiment with the bit-parallel batch frame
// sampler (64 shots per pass), decodes every shot with the union–find
// decoder, and counts logical errors (decoder prediction disagreeing with
// the true observable flip).
//
// The mc engine distributes the shot budget across worker goroutines
// (workers <= 0 means runtime.NumCPU(), 1 runs serially on the calling
// goroutine). Each worker owns a sampler and a cloned union–find decoder;
// each shard re-seeds the worker's sampler with its deterministic stream,
// so the pooled (shots, errors) are bit-identical for any worker count.
// The obs counters advance once per shard, keeping the progress heartbeat
// live without per-shot atomics.
//
// Cancellation or deadline expiry stops dispatching new shards and returns
// the pooled tally of the shards that completed, alongside a
// *mc.PartialError identifying them. With a checkpoint scope on ctx
// (mc.WithCheckpoint) completed shards are persisted and skipped on
// resume, so an interrupted run can be finished later with bit-identical
// counts.
func (e *Experiment) RunContext(ctx context.Context, shots int, seed int64, workers int) (Result, error) {
	cfg := mc.Config{Shots: shots, Seed: seed, Workers: workers}
	tally, err := mc.RunContext(ctx, cfg, func() mc.ShardRunner {
		rng := splitmix.New(0)
		bs := stabsim.NewBatchFrameSampler(e.Circuit, rng)
		uf := e.uf.Clone()
		var preds [64]uint64
		return func(sh mc.Shard) mc.Tally {
			rng.Seed(sh.Seed)
			// Sub-phase tracing splits a sampled shard's slice into its
			// sample (frame propagation) and decode (union-find) phases,
			// one pair per 64-shot batch. Timing never touches the RNG, so
			// traced and untraced runs are bit-identical.
			traced := trace.Sampled(sh.Index)
			emit := func(name string, ts0 int64) int64 {
				ts1 := trace.Now()
				trace.Emit(trace.Event{
					Name: name, Cat: "mc." + name, Proc: "mc", Lane: sh.Lane,
					Phase: trace.PhaseComplete, TS: ts0, Dur: ts1 - ts0,
					Index: int64(sh.Index),
				})
				return ts1
			}
			var t mc.Tally
			for done := 0; done < sh.Shots; {
				var ts0 int64
				if traced {
					ts0 = trace.Now()
				}
				batch := bs.SampleBatch()
				if traced {
					ts0 = emit("sample", ts0)
				}
				n := 64
				if sh.Shots-done < n {
					n = sh.Shots - done
				}
				// Sparse decode: one transpose of the packed detector words
				// per batch, then only each shot's actual defects are walked —
				// the dense []bool round-trip is gone.
				uf.DecodeBatch(batch.Detectors, n, preds[:])
				for s := 0; s < n; s++ {
					actual := batch.Observables[0]>>uint(s)&1 == 1
					if (preds[s]&1 == 1) != actual {
						t.Errors++
					}
				}
				if traced {
					emit("decode", ts0)
				}
				done += n
			}
			t.Shots = int64(sh.Shots)
			surfShots.Add(t.Shots)
			surfErrors.Add(t.Errors)
			return t
		}
	})
	return Result{Shots: int(tally.Shots), LogicalErrors: int(tally.Errors), Rounds: e.Params.Rounds}, err
}
