package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/bits"
	"os"
	"path/filepath"
	"time"

	"hetarch/internal/decoder"
	"hetarch/internal/distill"
	"hetarch/internal/experiments"
	"hetarch/internal/mc"
	"hetarch/internal/mc/checkpoint"
	"hetarch/internal/qec"
	"hetarch/internal/splitmix"
	"hetarch/internal/stabsim"
	"hetarch/internal/surface"
	"hetarch/internal/uec"
)

// point is one checked outcome of a workload: a Monte Carlo point (shots
// and logical errors), a distillation point (delivered pairs) or a
// deterministic text output (its digest). Fail is set when a consistency
// check the body runs itself, such as resume against write, fails.
type point struct {
	Name      string `json:"name"`
	Shots     int64  `json:"shots,omitempty"`
	Errors    int64  `json:"errors,omitempty"`
	Delivered int64  `json:"delivered,omitempty"`
	Digest    string `json:"digest,omitempty"`
	Fail      string `json:"fail,omitempty"`
}

// instance is a workload after its setup: everything before the first
// shard or point is built, and body runs the timed part. A nil tracer runs
// the body through the packages' own entry points; a non-nil one times
// them, through a replica where the package emits no spans of its own.
// The body calls pace before each point, where the measurement samples the
// calibration kernel (calibrate.go); pass noPace to run it alone.
type instance struct {
	names        []string           // every point the body and setup report, in order
	setupPoints  []point            // outcomes already known after setup
	layers       map[string]float64 // per-layer metrics of the setup
	traceSampleN int                // the traced run keeps spans of 1-in-N shards
	body         func(ctx context.Context, seed int64, tr *tracer, pace func()) ([]point, error)
}

func noPace() {}

// headline is the physics number a workload reports beside its timings,
// with the paper's value where EXPERIMENTS.md gives one.
type headline struct {
	name  string
	unit  string
	at    string
	paper string
	value func([]point) float64
}

type workload struct {
	name     string
	why      string
	threads  int // CPUs the body keeps busy, and so the calibration kernel's threads
	headline headline
	setup    func() (*instance, error)
}

// workloads returns the benchmark's five workloads at their fixed sizes.
// Each body takes about 2-3 s on 2 cores. Why each exists is in its why
// line, mirrored in BENCHMARK.json.
func workloads() []*workload {
	return []*workload{
		surfaceWorkload("surface-d13",
			"d=13 Fig 6 points: union-find decoding is ~94% of worker time at ~129 defects/shot, so decoder changes show here",
			13, []float64{100, 500}, 5000,
			"Fig 6 d=13, alpha=1 (T_CD=T_CA=100us), Z+X", "0.009"),
		surfaceWorkload("surface-d5",
			"d=5 Fig 7 points: the same decoder path at ~6 defects/shot in ~1.3 ms shards, so mc per-shard overhead shows",
			5, []float64{100, 800}, 250000,
			"Fig 7 d=5, T_CD/T_CA=1, Z+X", ""),
		uecWorkload("uec",
			"Fig 9/Table 3 codes on the lookup decoder: union-find is bypassed; sampling (~60%) and lookup decoding in ~45 us mc shards dominate",
			[]uecConfig{{"het-ts1ms", 1, true}, {"het-ts50ms", 50, true}, {"hom-ts50ms", 50, false}},
			1000000, false),
		uecWorkload("uec-resume",
			"the uec campaign with a checkpoint appended beside it, then replayed from the file: the checkpoint write and replay paths",
			[]uecConfig{{"het-ts50ms", 50, true}},
			2560000, true),
		distillWorkload("distill",
			"cold Table 2 characterization plus Fig 4 at a 20 ms horizon: event-driven, bypasses stabsim, decoder and mc",
			20000),
	}
}

func findWorkload(name string) *workload {
	for _, w := range workloads() {
		if w.name == name {
			return w
		}
	}
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// surfaceWorkload runs the surface-code memory experiment at distance d
// for each T_CD in both bases, shots per (point, basis). Its headline is
// the Z+X logical error per cycle at the first T_CD, as in Fig 6/7.
func surfaceWorkload(name, why string, d int, tcds []float64, shots int, at, paper string) *workload {
	var params []surface.Params
	var names []string
	for _, tcd := range tcds {
		for _, b := range []byte{'Z', 'X'} {
			p := surface.DefaultParams(d)
			p.TcdMicros = tcd
			p.Basis = b
			params = append(params, p)
			names = append(names, fmt.Sprintf("tcd=%gus/%c", tcd, b))
		}
	}
	w := &workload{name: name, why: why, threads: workers}
	w.headline = headline{
		name: "ler_per_cycle", unit: "probability", at: at, paper: paper,
		value: func(pts []point) float64 {
			// The first two points are the first T_CD in Z and X.
			v := 0.0
			for _, p := range pts[:2] {
				v += surface.PerCycle(float64(p.Errors)/float64(p.Shots), d)
			}
			return v
		},
	}
	w.setup = func() (*instance, error) {
		t0 := time.Now()
		es := make([]*surface.Experiment, len(params))
		for i, p := range params {
			e, err := surface.New(p)
			if err != nil {
				return nil, err
			}
			es[i] = e
		}
		inst := &instance{
			names:  names,
			layers: map[string]float64{"surface.new_ms": ms(time.Since(t0)) / float64(len(es))},
			// surface.Experiment.RunContext emits a sample and a decode span
			// per batch of every traced shard; the per-layer times are their
			// sums, so every shard is traced.
			traceSampleN: 1,
		}
		inst.body = func(ctx context.Context, seed int64, tr *tracer, pace func()) ([]point, error) {
			out := make([]point, len(es))
			for i, e := range es {
				pace()
				t, err := tr.runMC(names[i], func() (mc.Tally, error) {
					r, err := e.RunContext(ctx, shots, seed, workers)
					return mc.Tally{Shots: int64(r.Shots), Errors: int64(r.LogicalErrors)}, err
				})
				if err != nil {
					return nil, err
				}
				out[i] = point{Name: names[i], Shots: t.Shots, Errors: t.Errors}
			}
			return out, nil
		}
		return inst, nil
	}
	return w
}

type uecConfig struct {
	label    string
	tsMillis float64
	het      bool
}

// evaluationCodes are the five Fig 9 / Table 3 codes under the names the
// experiments print; native marks the lattice-native surface codes.
func evaluationCodes() []struct {
	name   string
	code   *qec.Code
	native bool
} {
	sc3, _ := qec.Surface(3)
	sc4, _ := qec.Surface(4)
	return []struct {
		name   string
		code   *qec.Code
		native bool
	}{
		{"Reed-Muller", qec.ReedMuller15(), false},
		{"TriColor-d5", qec.TriColor5(), false},
		{"Steane", qec.Steane(), false},
		{"Surface-d3", sc3, true},
		{"Surface-d4", sc4, true},
	}
}

// uecWorkload runs every evaluation code under each config in both bases,
// shots each, as experiments.Table3 builds them. With resume, each body
// runs a write pass against a fresh checkpoint and then a second pass that
// reopens the file and resumes every shard from it; the two must agree.
// Its headline is Steane's Z+X logical error per cycle under the config
// that has Ts = 50 ms on the heterogeneous module.
func uecWorkload(name, why string, cfgs []uecConfig, shots int, resume bool) *workload {
	var params []uec.Params
	var names []string
	headlineAt := -1
	for _, c := range evaluationCodes() {
		for _, cfg := range cfgs {
			if c.name == "Steane" && cfg.het && cfg.tsMillis == 50 {
				headlineAt = len(params)
			}
			for _, b := range []byte{'Z', 'X'} {
				p := uec.DefaultParams(c.code, cfg.tsMillis, cfg.het)
				p.Basis = b
				p.NativePlacement = c.native && !cfg.het
				params = append(params, p)
				names = append(names, fmt.Sprintf("%s/%s/%c", c.name, cfg.label, b))
			}
		}
	}
	w := &workload{name: name, why: why, threads: workers}
	w.headline = headline{
		name: "ler_per_cycle", unit: "probability", at: "UEC Steane, heterogeneous, Ts=50ms, Z+X",
		value: func(pts []point) float64 {
			v := 0.0
			for _, p := range pts[headlineAt : headlineAt+2] {
				v += float64(p.Errors) / float64(p.Shots)
			}
			return v
		},
	}
	w.setup = func() (*instance, error) {
		t0 := time.Now()
		es := make([]*uec.Experiment, len(params))
		for i, p := range params {
			e, err := uec.New(p)
			if err != nil {
				return nil, err
			}
			es[i] = e
		}
		inst := &instance{
			names:        names,
			layers:       map[string]float64{"uec.new_ms": ms(time.Since(t0)) / float64(len(es))},
			traceSampleN: traceSampleN,
		}
		runAll := func(ctx context.Context, seed int64, tr *tracer, pace func()) ([]point, error) {
			out := make([]point, len(es))
			for i, e := range es {
				pace()
				t, err := tr.runMC(names[i], func() (mc.Tally, error) {
					if tr != nil {
						return mc.RunContext(ctx, mc.Config{Shots: shots, Seed: seed, Workers: workers}, uecReplica(e, tr))
					}
					r, err := e.RunContext(ctx, shots, seed, workers)
					return mc.Tally{Shots: int64(r.Shots), Errors: int64(r.LogicalErrors)}, err
				})
				if err != nil {
					return nil, err
				}
				out[i] = point{Name: names[i], Shots: t.Shots, Errors: t.Errors}
			}
			return out, nil
		}
		if !resume {
			inst.body = runAll
			return inst, nil
		}

		// Each body writes a fresh checkpoint and removes it afterwards, so
		// creating the file is timed with the body, not the setup: its
		// filesystem latency would swamp a setup of a few milliseconds.
		inst.body = func(ctx context.Context, seed int64, tr *tracer, pace func()) ([]point, error) {
			dir, err := os.MkdirTemp("", "hetarchbench-")
			if err != nil {
				return nil, err
			}
			defer os.RemoveAll(dir)
			path := filepath.Join(dir, "checkpoint.jsonl")
			meta := checkpoint.NewMeta("hetarchbench", name, "bench", seed, 0)
			pass := func(resumed bool) ([]point, error) {
				t0 := time.Now()
				f, err := checkpoint.Open(path, meta)
				if err != nil {
					return nil, err
				}
				openNs := int64(time.Since(t0))
				defer f.Close()
				var cp mc.Checkpoint = f
				if tr != nil {
					if resumed {
						tr.openNs += openNs
					}
					cp = &timedCheckpoint{cp: f, tr: tr}
				}
				out, err := runAll(mc.WithCheckpoint(ctx, cp), seed, tr, pace)
				if err != nil {
					return nil, err
				}
				if resumed && f.Len() != f.Resumed() {
					for i := range out {
						out[i].Fail = fmt.Sprintf("resume executed %d shards instead of replaying them", f.Len()-f.Resumed())
					}
				}
				if !resumed && tr != nil {
					if fi, err := os.Stat(path); err == nil {
						tr.ckBytes += fi.Size()
					}
				}
				return out, f.Close()
			}
			written, err := pass(false)
			if err != nil {
				return nil, err
			}
			resumed, err := pass(true)
			if err != nil {
				return nil, err
			}
			for i := range resumed {
				if w := written[i]; w.Shots != resumed[i].Shots || w.Errors != resumed[i].Errors {
					resumed[i].Fail = fmt.Sprintf("resume counted %d/%d, write pass %d/%d",
						resumed[i].Errors, resumed[i].Shots, w.Errors, w.Shots)
				}
			}
			return resumed, nil
		}
		return inst, nil
	}
	return w
}

// uecReplica is the shard body of uec.Experiment.RunContext with a clock
// read around each SampleBatch and around each syndrome transpose plus
// two-stage lookup decode, summed into tr.sampleNs and tr.lookupNs for
// every batch and emitted as spans on traced shards. uec emits no spans of
// its own, so unlike the surface workloads this one needs a copy.
//
// It mirrors two pieces of internal/uec/uec.go, and a change to either
// must be made here too:
//   - New: checkMasks (maskOf over the basis-type stabilizers that
//     Params.basisStabs picks, ZStabs for basis Z, XStabs for X),
//     logicalMask (maskOf LogicalZ or LogicalX) and
//     decoder.CachedLookup(p.Code.N, checkMasks), which returns the
//     experiment's own table;
//   - RunContext: the worker state (splitmix RNG reseeded per shard,
//     stabsim.NewBatchFrameSampler, syn1/synBoth words) and the per-batch
//     transpose, clean-shot skip and two-stage Decode/Syndrome/Decode.
//
// It can go once uec.RunContext emits sample and decode spans as
// surface.Experiment.RunContext does.
func uecReplica(e *uec.Experiment, tr *tracer) func() mc.ShardRunner {
	code := e.P.Code
	checks, logical := code.ZStabs, code.LogicalZ
	if e.P.Basis == 'X' {
		checks, logical = code.XStabs, code.LogicalX
	}
	maskOf := func(support []int) uint64 {
		var m uint64
		for _, q := range support {
			m |= 1 << uint(q)
		}
		return m
	}
	masks := make([]uint64, len(checks))
	for i, s := range checks {
		masks[i] = maskOf(qec.Support(s))
	}
	logicalMask := maskOf(qec.Support(logical))
	lookup := decoder.CachedLookup(code.N, masks)
	k := len(masks)
	return func() mc.ShardRunner {
		rng := splitmix.New(0)
		bs := stabsim.NewBatchFrameSampler(e.Circuit, rng)
		var syn1, synBoth [64]uint64
		return func(sh mc.Shard) mc.Tally {
			rng.Seed(sh.Seed)
			spans := tr.col.Sampled(sh.Index)
			var t mc.Tally
			var sampleNs, lookupNs int64
			for done := 0; done < sh.Shots; {
				t0 := tr.now()
				batch := bs.SampleBatch()
				t1 := tr.now()
				n := min(64, sh.Shots-done)
				for s := 0; s < n; s++ {
					syn1[s], synBoth[s] = 0, 0
				}
				for i := 0; i < k; i++ {
					for w := batch.Detectors[i]; w != 0; w &= w - 1 {
						syn1[bits.TrailingZeros64(w)] |= 1 << uint(i)
					}
					for w := batch.Detectors[k+i]; w != 0; w &= w - 1 {
						synBoth[bits.TrailingZeros64(w)] |= 1 << uint(i)
					}
				}
				for s := 0; s < n; s++ {
					actual := batch.Observables[0]>>uint(s)&1 == 1
					if syn1[s] == 0 && synBoth[s] == 0 {
						if actual {
							t.Errors++
						}
						continue
					}
					c1 := lookup.Decode(syn1[s])
					c2 := lookup.Decode(synBoth[s] ^ lookup.Syndrome(c1))
					if (bits.OnesCount64((c1^c2)&logicalMask)%2 == 1) != actual {
						t.Errors++
					}
				}
				t2 := tr.now()
				sampleNs += t1 - t0
				lookupNs += t2 - t1
				if spans {
					tr.span("mc", "sample", "bench.sample", sh.Lane, sh.Index, t0, t1)
					tr.span("mc", "decode", "bench.decode", sh.Lane, sh.Index, t1, t2)
				}
				done += n
			}
			tr.sampleNs.Add(sampleNs)
			tr.lookupNs.Add(lookupNs)
			t.Shots = int64(sh.Shots)
			return t
		}
	}
}

// Fig 4's operating grid, as experiments.Fig4 sweeps it: generation rates
// (kHz) by storage lifetimes (ms), plus the homogeneous column.
var (
	fig4Rates = []float64{100, 300, 1000, 3000, 10000}
	fig4Ts    = []float64{0.5, 1, 2.5, 5, 12.5, 50}
)

// table2Cells is the number of cells experiments.Table2Store characterizes
// (the fifth, USC-Ext, is printed without a characterization).
const table2Cells = 4

// distillWorkload characterizes the Table 2 cells once in setup (its
// printed table is the "table2" point, checked by digest) and runs Fig 4
// at the given horizon as its body: the 35 module simulations of
// experiments.Fig4, one by one as Fig4 runs them, so that the measurement
// can sample the calibration kernel between them (TestDistillBodyIsFig4
// checks the outcomes against Fig4's table). The traced body times each
// NewModule+Run. Its headline is the delivered rate at the paper's
// operating point.
func distillWorkload(name, why string, horizonMicros float64) *workload {
	var names []string
	for _, rate := range fig4Rates {
		for _, ts := range fig4Ts {
			names = append(names, fmt.Sprintf("%gkHz/Ts=%gms", rate, ts))
		}
		names = append(names, fmt.Sprintf("%gkHz/hom", rate))
	}
	delivered := func(kps float64) int64 { return int64(math.Round(kps * 1000 * horizonMicros * 1e-6)) }
	w := &workload{name: name, why: why, threads: 1}
	w.headline = headline{
		name: "distilled_kps", unit: "k_pairs/s", at: "Fig 4, 1000 kHz generation, Ts=12.5ms",
		value: func(pts []point) float64 {
			for _, p := range pts {
				if p.Name == "1000kHz/Ts=12.5ms" {
					return float64(p.Delivered) / (horizonMicros * 1e-6) / 1000
				}
			}
			return math.NaN()
		},
	}
	w.setup = func() (*instance, error) {
		t0 := time.Now()
		var table bytes.Buffer
		if err := experiments.Table2Store(&table, nil); err != nil {
			return nil, err
		}
		sum := sha256.Sum256(table.Bytes())
		inst := &instance{
			names:        append([]string{"table2"}, names...),
			setupPoints:  []point{{Name: "table2", Digest: hex.EncodeToString(sum[:])}},
			layers:       map[string]float64{"densmat.characterize_ms_per_cell": ms(time.Since(t0)) / table2Cells},
			traceSampleN: traceSampleN,
		}
		inst.body = func(ctx context.Context, seed int64, tr *tracer, pace func()) ([]point, error) {
			out := make([]point, 0, len(names))
			for _, rate := range fig4Rates {
				var cfgs []distill.Config
				for _, ts := range fig4Ts {
					cfgs = append(cfgs, distill.DefaultConfig(ts, true))
				}
				cfgs = append(cfgs, distill.DefaultConfig(0.5, false))
				for _, cfg := range cfgs {
					if err := ctx.Err(); err != nil {
						return nil, err
					}
					cfg.Seed = seed
					cfg.GenRateKHz = rate
					cfg.ConsumeAtThreshold = true
					i := len(out)
					pace()
					if tr == nil {
						stats := distill.NewModule(cfg).Run(horizonMicros)
						out = append(out, point{Name: names[i], Delivered: delivered(stats.DeliveredRatePerSecond() / 1000)})
						continue
					}
					t0 := tr.now()
					stats := distill.NewModule(cfg).Run(horizonMicros)
					t1 := tr.now()
					tr.distillNs += t1 - t0
					tr.distillRuns++
					tr.span("bench", names[i], "bench.point", 0, i, t0, t1)
					out = append(out, point{Name: names[i], Delivered: delivered(stats.DeliveredRatePerSecond() / 1000)})
				}
			}
			return out, nil
		}
		return inst, nil
	}
	return w
}
