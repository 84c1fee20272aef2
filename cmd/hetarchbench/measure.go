package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync/atomic"
	"syscall"
	"time"

	"hetarch/internal/mc"
	"hetarch/internal/obs"
	"hetarch/internal/obs/trace"
)

// Fixed benchmark settings. None is a flag, so any two invocations at the
// same --seconds are comparable.
const (
	workers = 2 // mc worker goroutines; refused above runtime.NumCPU()
	// minReps is the least number of timed repetitions per run; more
	// follow while --seconds lasts, two to seven at 25 s on the reference
	// VM. Two rather than three, so that a run on a host twice as slow
	// still ends near --seconds; not one, so that every run checks that
	// the counts repeat.
	minReps      = 2
	probesPerRep = 2  // cold setup probes before each timed repetition and after the last
	traceSampleN = 16 // batch-level spans on 1-in-N shards of the traced run
	traceCap     = 1 << 18

	// zMax is the one-sided z above which a point's logical-error count
	// (or shortfall in delivered pairs) fails against the reference. A
	// campaign of ~100 runs at up to 36 points each makes thousands of
	// tests: at z > 3.29 (p = 5e-4) a correct program would fail a point
	// or two per campaign, at z > 5 (p = 3e-7) about once in a few hundred
	// campaigns. A decoder that doubles the error count still fails on any
	// point with 100 or more reference errors.
	zMax = 5.0
)

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics printed with --trace 0, measured with tracing
// off; they and their bounds are mirrored in BENCHMARK.json.
var endToEnd = []metricDef{
	{"wall_s", "s", "lower", 0.25},
	{"cpu_s", "s", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
	{"peak_rss_mb", "MiB", "lower", 0.20},
	{"allocs", "count", "lower", 0.10},
}

// perLayer are the metrics printed with --trace 1, from the traced run.
// A layer the workload does not reach reports 0.
var perLayer = []metricDef{
	{"stabsim.sample_ns_per_shot", "ns/shot", "lower", 0},
	{"stabsim.busy_frac", "fraction", "lower", 0},
	{"decoder.uf_ns_per_shot", "ns/shot", "lower", 0},
	{"decoder.uf_busy_frac", "fraction", "lower", 0},
	{"decoder.uf_defects_per_shot", "defects/shot", "lower", 0},
	{"decoder.lookup_ns_per_shot", "ns/shot", "lower", 0},
	{"decoder.lookup_busy_frac", "fraction", "lower", 0},
	{"decoder.lookup_decodes_per_shot", "decodes/shot", "lower", 0},
	{"mc.shards", "count", "lower", 0},
	{"mc.us_per_shard", "us/shard", "lower", 0},
	{"mc.overhead_frac", "fraction", "lower", 0},
	{"checkpoint.record_us", "us/record", "lower", 0},
	{"checkpoint.lookup_us", "us/lookup", "lower", 0},
	{"checkpoint.busy_frac", "fraction", "lower", 0},
	{"checkpoint.bytes_per_record", "B/record", "lower", 0},
	{"checkpoint.open_s", "s", "lower", 0},
	{"surface.new_ms", "ms", "lower", 0},
	{"uec.new_ms", "ms", "lower", 0},
	{"densmat.characterize_ms_per_cell", "ms/cell", "lower", 0},
	{"distill.run_ms_per_point", "ms/point", "lower", 0},
	{"sched.events_per_point", "events/point", "lower", 0},
	{"sched.ns_per_event", "ns/event", "lower", 0},
	{"bench.trace_overhead_frac", "fraction", "lower", 0},
	{"bench.calibration_ms", "ms", "lower", 0},
}

// tracer times the layers of one traced body. It arms the process-wide
// trace.Default collector, so the spans the program emits itself (mc
// shards and merges, the surface runner's per-batch sample and decode)
// land beside the ones the benchmark adds: one span per Monte Carlo or
// distillation point, the uec replica's sample and decode spans, and the
// checkpoint appends. Sums that spans cannot give, because they cover
// only sampled shards, are kept as atomics. Fields that are not atomic
// are written by the body's goroutine only.
type tracer struct {
	col *trace.Collector

	mcWallNs int64 // summed wall time of the Monte Carlo points

	// uec replica time over every batch (uecReplica)
	sampleNs, lookupNs atomic.Int64

	ckLookupNs, ckRecordNs atomic.Int64
	ckLookups, ckRecords   atomic.Int64
	ckBytes                int64 // checkpoint file size after the write pass
	openNs                 int64 // checkpoint.Open of the resume pass

	distillNs   int64
	distillRuns int64
}

// newTracer arms trace.Default, keeping every sampleN-th shard's spans.
// Disable it when the traced body returns.
func newTracer(sampleN int) *tracer {
	tr := &tracer{col: trace.Default}
	tr.col.Enable(traceCap, sampleN)
	return tr
}

func (tr *tracer) now() int64 { return tr.col.Now() }

// span records one span on the given Chrome trace process and lane: "mc"
// lanes are the mc workers, as in the program's own spans, and "bench"
// lane 0 holds one span per Monte Carlo or distillation point.
func (tr *tracer) span(proc, name, cat string, laneIdx, index int, t0, t1 int64) {
	tr.col.Emit(trace.Event{
		Name: name, Cat: cat, Proc: proc, Lane: laneIdx,
		Phase: trace.PhaseComplete, TS: t0, Dur: t1 - t0, Index: int64(index),
	})
}

// runMC runs one Monte Carlo point. A nil tracer only calls run; a tracer
// also adds its wall time to the busy-fraction denominator and a span.
func (tr *tracer) runMC(name string, run func() (mc.Tally, error)) (mc.Tally, error) {
	if tr == nil {
		return run()
	}
	t0 := tr.now()
	t, err := run()
	t1 := tr.now()
	tr.mcWallNs += t1 - t0
	tr.span("bench", name, "bench.point", 0, -1, t0, t1)
	return t, err
}

// timedCheckpoint is the mc.Checkpoint the traced uec-resume body installs
// around *checkpoint.File: it times every Lookup and Record.
type timedCheckpoint struct {
	cp mc.Checkpoint
	tr *tracer
}

func (c *timedCheckpoint) Lookup(key mc.RunKey, sh mc.Shard) (mc.Tally, bool) {
	t0 := c.tr.now()
	t, ok := c.cp.Lookup(key, sh)
	c.tr.ckLookupNs.Add(c.tr.now() - t0)
	c.tr.ckLookups.Add(1)
	return t, ok
}

func (c *timedCheckpoint) Record(key mc.RunKey, sh mc.Shard, t mc.Tally) error {
	t0 := c.tr.now()
	err := c.cp.Record(key, sh, t)
	t1 := c.tr.now()
	c.tr.ckRecordNs.Add(t1 - t0)
	c.tr.ckRecords.Add(1)
	if c.tr.col.Sampled(sh.Index) {
		c.tr.span("mc", "record", "bench.checkpoint", sh.Lane, sh.Index, t0, t1)
	}
	return err
}

// counters are the program's own registry counters and histograms the
// traced run reads work counts and shard times from, as deltas around the
// body.
type counters struct {
	ufDecodes, defectSum, defectCount int64
	lookupDecodes, sampledShots       int64
	shards, shardNs                   int64
	schedEvents                       int64
}

func readCounters() counters {
	defects := obs.H("decoder.unionfind.defects_per_shot")
	shardWall := obs.H("mc.shard_wall_ns")
	return counters{
		ufDecodes:     obs.C("decoder.unionfind.decodes").Value(),
		defectSum:     defects.Sum(),
		defectCount:   defects.Count(),
		lookupDecodes: obs.C("decoder.lookup.decodes").Value(),
		sampledShots:  obs.C("stabsim.batch_shots").Value(),
		shards:        shardWall.Count(),
		shardNs:       shardWall.Sum(),
		schedEvents:   obs.C("sched.events").Value(),
	}
}

func (c counters) minus(c0 counters) counters {
	return counters{
		ufDecodes:     c.ufDecodes - c0.ufDecodes,
		defectSum:     c.defectSum - c0.defectSum,
		defectCount:   c.defectCount - c0.defectCount,
		lookupDecodes: c.lookupDecodes - c0.lookupDecodes,
		sampledShots:  c.sampledShots - c0.sampledShots,
		shards:        c.shards - c0.shards,
		shardNs:       c.shardNs - c0.shardNs,
		schedEvents:   c.schedEvents - c0.schedEvents,
	}
}

// ratio is a/b, or 0 when the layer did no work (b == 0).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layers turns one traced body, and the counter deltas c around it, into
// the per-layer metrics. The surface runner's sample and decode times are
// the sums of its own "mc.sample" and "mc.decode" spans, which it emits
// for every batch because its workloads trace every shard; the uec
// replica's are the tracer's atomics. Per-shot figures divide by the
// shots sampled (stabsim.batch_shots, 64 per batch), so the resume pass's
// replayed shards do not count. Busy fractions share one denominator, the
// workers' time inside the Monte Carlo points, and mc.overhead_frac is
// the part of it outside mc.shard_wall_ns, so sampling, decoding,
// checkpoint I/O and mc overhead add up to about 1.
func (tr *tracer) layers(c counters) map[string]float64 {
	sampleNs, ufNs := float64(tr.sampleNs.Load()), 0.0
	for _, e := range tr.col.Events() {
		switch e.Cat {
		case "mc.sample":
			sampleNs += float64(e.Dur)
		case "mc.decode":
			ufNs += float64(e.Dur)
		}
	}
	lookupNs := float64(tr.lookupNs.Load())
	pool := float64(tr.mcWallNs) * workers
	shots := float64(c.sampledShots)
	ckNs := float64(tr.ckLookupNs.Load() + tr.ckRecordNs.Load())
	events := float64(c.schedEvents)
	m := map[string]float64{
		"stabsim.sample_ns_per_shot":      ratio(sampleNs, shots),
		"stabsim.busy_frac":               ratio(sampleNs, pool),
		"decoder.uf_ns_per_shot":          ratio(ufNs, float64(c.ufDecodes)),
		"decoder.uf_busy_frac":            ratio(ufNs, pool),
		"decoder.uf_defects_per_shot":     ratio(float64(c.defectSum), float64(c.defectCount)),
		"decoder.lookup_ns_per_shot":      ratio(lookupNs, shots),
		"decoder.lookup_busy_frac":        ratio(lookupNs, pool),
		"decoder.lookup_decodes_per_shot": ratio(float64(c.lookupDecodes), shots),
		"mc.shards":                       float64(c.shards),
		"mc.us_per_shard":                 ratio(float64(c.shardNs)/1e3, float64(c.shards)),
		"mc.overhead_frac":                ratio(pool-float64(c.shardNs), pool),
		"checkpoint.record_us":            ratio(float64(tr.ckRecordNs.Load())/1e3, float64(tr.ckRecords.Load())),
		"checkpoint.lookup_us":            ratio(float64(tr.ckLookupNs.Load())/1e3, float64(tr.ckLookups.Load())),
		"checkpoint.busy_frac":            ratio(ckNs, pool),
		"checkpoint.bytes_per_record":     ratio(float64(tr.ckBytes), float64(tr.ckRecords.Load())),
		"checkpoint.open_s":               float64(tr.openNs) / 1e9,
		"distill.run_ms_per_point":        ratio(float64(tr.distillNs)/1e6, float64(tr.distillRuns)),
		"sched.events_per_point":          ratio(events, float64(tr.distillRuns)),
		"sched.ns_per_event":              ratio(float64(tr.distillNs), events),
	}
	return m
}

// reference is the committed correctness reference: every workload's
// points at seed 1, written by -write-reference.
type reference struct {
	Seed      int64              `json:"seed"`
	Workloads map[string][]point `json:"workloads"`
}

// buildReference runs each workload's body once at seed 1, in this
// process, and returns the outcomes as a reference.
func buildReference(ws ...*workload) (reference, error) {
	ref := reference{Seed: 1, Workloads: map[string][]point{}}
	for _, w := range ws {
		inst, _, err := setupWorkload(w)
		if err != nil {
			return ref, fmt.Errorf("%s: setup: %w", w.name, err)
		}
		pts, err := runBody(context.Background(), inst, ref.Seed, nil, noPace)
		if err != nil {
			return ref, fmt.Errorf("%s: %w", w.name, err)
		}
		ref.Workloads[w.name] = append(slices.Clone(inst.setupPoints), pts...)
	}
	return ref, nil
}

//go:embed testdata/reference.json
var referenceJSON []byte

func committedReference() (reference, error) {
	var ref reference
	if err := json.Unmarshal(referenceJSON, &ref); err != nil {
		return ref, fmt.Errorf("testdata/reference.json: %w", err)
	}
	return ref, nil
}

// check compares one point against its reference point and returns why it
// fails, or "". Monte Carlo points fail when their logical-error rate
// exceeds the reference's by a one-sided two-proportion z > zMax;
// distillation points when they deliver fewer pairs by z > zMax under
// Poisson counts; deterministic outputs when their digest differs. Runs at
// other seeds than the reference's are therefore judged statistically, and
// a change that lowers error counts never fails.
func check(p, ref point) string {
	switch {
	case ref.Digest != "" || p.Digest != "":
		if p.Digest != ref.Digest {
			return fmt.Sprintf("digest %.12s, reference %.12s", p.Digest, ref.Digest)
		}
	case ref.Shots != 0 || p.Shots != 0:
		if p.Shots != ref.Shots {
			return fmt.Sprintf("%d shots, reference %d", p.Shots, ref.Shots)
		}
		n := float64(p.Shots)
		pooled := float64(p.Errors+ref.Errors) / (2 * n)
		se := math.Sqrt(pooled * (1 - pooled) * 2 / n)
		if z := ratio(float64(p.Errors-ref.Errors)/n, se); z > zMax {
			return fmt.Sprintf("%d errors vs reference %d (z=%.1f)", p.Errors, ref.Errors, z)
		}
	default:
		if z := ratio(float64(ref.Delivered-p.Delivered), math.Sqrt(float64(ref.Delivered+p.Delivered))); z > zMax {
			return fmt.Sprintf("%d delivered vs reference %d (z=%.1f)", p.Delivered, ref.Delivered, z)
		}
	}
	return ""
}

// setupProbe is one cold setup, timed in a process of its own, and the
// kernel sample that process took right after it.
type setupProbe struct {
	WallS  float64            `json:"wall_s"`
	CPUS   float64            `json:"cpu_s"`
	Sample sample             `json:"sample"`
	Layers map[string]float64 `json:"layers"`
}

// probeSetup times one setup of w in this process and then samples the
// kernel for as long as the setup took, at least calProbe.
func probeSetup(w *workload, kernel func(time.Duration) (sample, error)) (setupProbe, error) {
	cpu0 := cpuSeconds()
	inst, s, err := setupWorkload(w)
	if err != nil {
		return setupProbe{}, err
	}
	p := setupProbe{WallS: s, CPUS: cpuSeconds() - cpu0, Layers: inst.layers}
	p.Sample, err = kernel(max(time.Duration(s*1e9), calProbe))
	return p, err
}

// setupS is the probe's setup time at the reference speed: its CPU time
// scaled by the kernel's CPU time right after it. Wall time would count
// the hypervisor's turns for other guests, which on a shared host can
// take most of a setup of tens of milliseconds.
func (p setupProbe) setupS() float64 {
	return p.CPUS * refKernelS[len(p.Sample.Units)] / p.Sample.kernelS(true)
}

// rep is one timed repetition of a body with tracing off, as measured, and
// the kernel samples taken during it. The times and allocations are the
// body's alone: the samples are left out.
type rep struct {
	WallS   float64  `json:"wall_s"`
	CPUS    float64  `json:"cpu_s"`
	Allocs  float64  `json:"allocs"`
	Samples []sample `json:"samples"`
}

// result is what one workload's run reports: its repetitions, checked
// points, failures by point, and with tracing the per-layer metrics.
type result struct {
	Workload  string              `json:"workload"`
	Seed      int64               `json:"seed"`
	Threads   int                 `json:"threads"`
	Attempted int                 `json:"attempted"`
	Failures  map[string][]string `json:"failures,omitempty"`
	Reps      []rep               `json:"reps"`
	Probes    []setupProbe        `json:"setup_probes"`
	Points    []point             `json:"points"`
	Headline  float64             `json:"headline"`
	Layers    map[string]float64  `json:"layers,omitempty"`
	TracedS   float64             `json:"traced_s,omitempty"`
	// PeakRSSMiB is the peak resident set size of the process that ran
	// the bodies; the setup probes and the calibration helper, in
	// processes of their own, do not count.
	PeakRSSMiB float64 `json:"peak_rss_mib"`
	Trace      *tracer `json:"-"`
}

// kernelS is the kernel's wall or CPU time over the given samples pooled,
// so that each sample weighs by the units it ran.
func (r *result) kernelS(samples []sample, cpu bool) float64 {
	pooled := sample{
		Units:    make([]int, r.Threads),
		PartS:    make([][calParts]float64, r.Threads),
		PartCPUS: make([][calParts]float64, r.Threads),
	}
	for _, s := range samples {
		for i := range s.Units {
			pooled.Units[i] += s.Units[i]
			for p := 0; p < calParts; p++ {
				pooled.PartS[i][p] += s.PartS[i][p]
				pooled.PartCPUS[i][p] += s.PartCPUS[i][p]
			}
		}
	}
	return pooled.kernelS(cpu)
}

// speed is how much faster than the reference machine the host ran the
// kernel over the given samples, in wall or CPU time: the reference kernel
// time ÷ the kernel time measured.
func (r *result) speed(samples []sample, cpu bool) float64 {
	return refKernelS[r.Threads] / r.kernelS(samples, cpu)
}

// allSamples are the kernel samples of every repetition.
func (r *result) allSamples() []sample {
	var all []sample
	for _, rp := range r.Reps {
		all = append(all, rp.Samples...)
	}
	return all
}

func (r *result) fail(point, why string) {
	if r.Failures == nil {
		r.Failures = map[string][]string{}
	}
	r.Failures[point] = append(r.Failures[point], why)
}

// runBody runs one body, turning a panic into an error so the point
// failure is reported instead of crashing the run.
func runBody(ctx context.Context, inst *instance, seed int64, tr *tracer, pace func()) (pts []point, err error) {
	defer func() {
		if v := recover(); v != nil {
			err = fmt.Errorf("panic: %v", v)
		}
	}()
	return inst.body(ctx, seed, tr, pace)
}

// timeRep runs the body once with tracing off. It samples the kernel
// before the first point and, at a point, once calGap of body time has
// passed since the last sample, for 1/calShare of that time; and once
// after the body for 1/calShare of its last stretch. The wall time, CPU
// time and allocations it reports are the body's, without the samples.
func timeRep(ctx context.Context, inst *instance, seed int64, kernel func(time.Duration) (sample, error)) (rep, []point, error) {
	var (
		r          rep
		kernelErr  error
		ms         runtime.MemStats
		segStart   time.Time
		segCPU     float64
		segMallocs uint64
	)
	begin := func() {
		runtime.ReadMemStats(&ms)
		segMallocs = ms.Mallocs
		segCPU = cpuSeconds()
		segStart = time.Now()
	}
	end := func() time.Duration {
		d := time.Since(segStart)
		r.CPUS += cpuSeconds() - segCPU
		runtime.ReadMemStats(&ms)
		r.Allocs += float64(ms.Mallocs - segMallocs)
		r.WallS += d.Seconds()
		return d
	}
	take := func(budget time.Duration) {
		s, err := kernel(budget)
		if err != nil && kernelErr == nil {
			kernelErr = err
		}
		r.Samples = append(r.Samples, s)
	}
	runtime.GC()
	take(calFirst)
	begin()
	pts, err := runBody(ctx, inst, seed, nil, func() {
		if time.Since(segStart) >= calGap {
			take(end() / calShare)
			begin()
		}
	})
	take(end() / calShare)
	if err == nil {
		err = kernelErr
	}
	return r, pts, err
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMiB is this process's peak resident set size, in MiB.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func mean(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// setupWorkload times one cold setup of w.
func setupWorkload(w *workload) (*instance, float64, error) {
	t0 := time.Now()
	inst, err := w.setup()
	return inst, time.Since(t0).Seconds(), err
}

// measure runs workload w in this process: its setup, at least minReps
// timed repetitions with tracing off (more while the seconds budget
// lasts, the traced repetition included), then with traced set one traced
// repetition. Every repetition must reproduce the first one's points
// exactly, and the first one's points must pass check against ref. A run
// that cannot produce points fails every point it would have reported.
//
// probe times one cold setup; probesPerRep of them run before each
// repetition and after the last, so that setup_s samples the machine over
// the same window as the body instead of one instant. kernel samples the
// calibration kernel for a budget (timeRep).
func measure(ctx context.Context, w *workload, seed int64, seconds float64, traced bool, ref reference,
	probe func() (setupProbe, error), kernel func(time.Duration) (sample, error)) (*result, error) {
	inst, _, err := setupWorkload(w)
	if err != nil {
		return nil, fmt.Errorf("%s: setup: %w", w.name, err)
	}
	res := &result{Workload: w.name, Seed: seed, Threads: w.threads, Attempted: len(inst.names)}
	failAll := func(why string) {
		for _, n := range inst.names {
			res.fail(n, why)
		}
	}

	runProbes := func() error {
		for i := 0; i < probesPerRep; i++ {
			p, err := probe()
			if err != nil {
				return fmt.Errorf("%s: setup probe: %w", w.name, err)
			}
			res.Probes = append(res.Probes, p)
		}
		return nil
	}

	// Repetitions go on while the next one, taken to last as long as the
	// last one with its probes and kernel samples, fits in seconds, beside
	// a traced body as long as the last one.
	start, last, reserve := time.Now(), 0.0, 0.0
	for len(res.Reps) < minReps || time.Since(start).Seconds()+last+reserve <= seconds {
		t0 := time.Now()
		if err := runProbes(); err != nil {
			return nil, err
		}
		r, pts, err := timeRep(ctx, inst, seed, kernel)
		if err != nil {
			failAll(fmt.Sprintf("rep %d: %v", len(res.Reps)+1, err))
			return res, nil
		}
		pts = append(slices.Clone(inst.setupPoints), pts...)
		if res.Points == nil {
			res.Points = pts
		} else {
			comparePoints(res, fmt.Sprintf("rep %d", len(res.Reps)+1), pts)
		}
		res.Reps = append(res.Reps, r)
		last = time.Since(t0).Seconds()
		if traced {
			reserve = r.WallS
		}
	}
	if err := runProbes(); err != nil {
		return nil, err
	}
	res.Headline = w.headline.value(res.Points[len(inst.setupPoints):])

	refPts := map[string]point{}
	for _, p := range ref.Workloads[w.name] {
		refPts[p.Name] = p
	}
	for _, p := range res.Points {
		if p.Fail != "" {
			res.fail(p.Name, p.Fail)
		}
		if rp, ok := refPts[p.Name]; !ok {
			res.fail(p.Name, "no reference point")
		} else if why := check(p, rp); why != "" {
			res.fail(p.Name, why)
		}
	}

	if !traced {
		return res, nil
	}
	tr := newTracer(inst.traceSampleN)
	runtime.GC()
	c0 := readCounters()
	t0 := time.Now()
	pts, err := runBody(ctx, inst, seed, tr, noPace)
	res.TracedS = time.Since(t0).Seconds()
	c := readCounters().minus(c0)
	tr.col.Disable()
	if err == nil && tr.col.Dropped() > 0 {
		err = fmt.Errorf("%d trace events dropped past the buffer's %d, so the span sums are short", tr.col.Dropped(), traceCap)
	}
	if err != nil {
		failAll(fmt.Sprintf("traced: %v", err))
		return res, nil
	}
	comparePoints(res, "traced", append(slices.Clone(inst.setupPoints), pts...))
	res.Layers = tr.layers(c)
	for _, d := range perLayer {
		if v, ok := inst.layers[d.Name]; ok {
			res.Layers[d.Name] = v
		} else if _, ok := res.Layers[d.Name]; !ok {
			res.Layers[d.Name] = 0 // a setup layer this workload does not have
		}
	}
	var walls []float64
	for _, r := range res.Reps {
		walls = append(walls, r.WallS)
	}
	res.Layers["bench.trace_overhead_frac"] = res.TracedS/median(walls) - 1
	res.Layers["bench.calibration_ms"] = res.kernelS(res.allSamples(), false) * 1e3
	res.Trace = tr
	return res, nil
}

// comparePoints fails every point of got that differs from the first
// repetition's outcome.
func comparePoints(res *result, what string, got []point) {
	if len(got) != len(res.Points) {
		for _, p := range res.Points {
			res.fail(p.Name, fmt.Sprintf("%s: %d points, first rep %d", what, len(got), len(res.Points)))
		}
		return
	}
	for i, p := range got {
		if want := res.Points[i]; p != want {
			res.fail(want.Name, fmt.Sprintf("%s: %+v, first rep %+v", what, p, want))
		}
	}
}
