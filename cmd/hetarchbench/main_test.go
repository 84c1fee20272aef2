package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"os"
	"slices"
	"strings"
	"testing"

	"hetarch/internal/experiments"
)

// tinyWorkloads are the five workload kinds at sizes that run in well
// under a second each: the same code paths as workloads(), smaller.
func tinyWorkloads() []*workload {
	return []*workload{
		surfaceWorkload("surface-tiny", "", 3, []float64{100, 500}, 700, "", ""),
		uecWorkload("uec-tiny", "", []uecConfig{{"het-ts1ms", 1, true}, {"het-ts50ms", 50, true}, {"hom-ts50ms", 50, false}}, 3000, false),
		uecWorkload("uec-resume-tiny", "", []uecConfig{{"het-ts50ms", 50, true}}, 3000, true),
		distillWorkload("distill-tiny", "", 300),
	}
}

// referenceFor is buildReference, as -write-reference runs it for the full
// sizes, failing the test on an error.
func referenceFor(t *testing.T, ws ...*workload) reference {
	t.Helper()
	ref, err := buildReference(ws...)
	if err != nil {
		t.Fatal(err)
	}
	return ref
}

// inProcessProbe times setups in the test process instead of a child.
func inProcessProbe(w *workload) func() (setupProbe, error) {
	kernel := inProcessKernel(1)
	return func() (setupProbe, error) { return probeSetup(w, kernel) }
}

// measureInProcess is measure with the setup probes and the calibration
// kernel run in the test process.
func measureInProcess(w *workload, seed int64, traced bool, ref reference) (*result, error) {
	return measure(context.Background(), w, seed, 0, traced, ref, inProcessProbe(w), inProcessKernel(w.threads))
}

// TestTracedReplicasReproduceCounts runs every workload kind with a traced
// run at another seed than the reference's: each repetition, the traced
// run (through the uec replica for the uec kinds) and, for uec-resume, the
// resume pass must reproduce the first repetition's points exactly, every
// point must pass the reference, and the traced run must time each layer
// the workload reaches.
func TestTracedReplicasReproduceCounts(t *testing.T) {
	ws := tinyWorkloads()
	ref := referenceFor(t, ws...)
	reached := map[string][]string{
		"surface-tiny":    {"stabsim.busy_frac", "decoder.uf_busy_frac", "decoder.uf_defects_per_shot", "mc.shards", "mc.us_per_shard"},
		"uec-tiny":        {"stabsim.sample_ns_per_shot", "decoder.lookup_busy_frac", "decoder.lookup_decodes_per_shot", "mc.shards"},
		"uec-resume-tiny": {"stabsim.busy_frac", "checkpoint.record_us", "checkpoint.lookup_us", "checkpoint.open_s", "checkpoint.bytes_per_record"},
		"distill-tiny":    {"distill.run_ms_per_point", "sched.events_per_point", "sched.ns_per_event"},
	}
	for _, w := range ws {
		t.Run(w.name, func(t *testing.T) {
			res, err := measureInProcess(w, 2, true, ref)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Failures) != 0 {
				t.Fatalf("failures: %v", res.Failures)
			}
			if len(res.Reps) != minReps || len(res.Probes) != (minReps+1)*probesPerRep || res.Attempted != len(res.Points) || res.Attempted == 0 {
				t.Fatalf("%d reps, %d setup probes, %d attempted, %d points", len(res.Reps), len(res.Probes), res.Attempted, len(res.Points))
			}
			for i, r := range res.Reps {
				// A kernel sample before the first point and one after the body.
				if len(r.Samples) < 2 || !(res.speed(r.Samples, false) > 0) || !(res.speed(r.Samples, true) > 0) {
					t.Errorf("rep %d: %d kernel samples, speed %g (wall), %g (CPU)", i+1, len(r.Samples), res.speed(r.Samples, false), res.speed(r.Samples, true))
				}
			}
			for _, d := range perLayer {
				if _, ok := res.Layers[d.Name]; !ok {
					t.Errorf("traced run did not report %s", d.Name)
				}
			}
			for _, name := range append(reached[w.name], "bench.calibration_ms") {
				if !(res.Layers[name] > 0) {
					t.Errorf("%s = %g, want > 0", name, res.Layers[name])
				}
			}
		})
	}
}

// TestTracedBodiesMatchUntraced checks the traced distill body, which times
// the 35 module simulations one by one, against the untraced one, and the
// traced uec-resume body against its untraced write/resume pair.
func TestTracedBodiesMatchUntraced(t *testing.T) {
	for _, w := range tinyWorkloads()[2:] {
		inst, _, err := setupWorkload(w)
		if err != nil {
			t.Fatal(err)
		}
		want, err := inst.body(context.Background(), 5, nil, noPace)
		if err != nil {
			t.Fatal(err)
		}
		tr := newTracer(inst.traceSampleN)
		got, err := inst.body(context.Background(), 5, tr, noPace)
		tr.col.Disable()
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, want) {
			t.Errorf("%s: traced %v, untraced %v", w.name, got, want)
		}
		if w.name == "distill-tiny" && (len(got) != 35 || tr.distillRuns != 35) {
			t.Errorf("distill: %d points, %d timed runs; want 35", len(got), tr.distillRuns)
		}
		if w.name == "uec-resume-tiny" && (tr.ckRecords.Load() == 0 || tr.openNs == 0) {
			t.Errorf("uec-resume: %d records timed, open %d ns", tr.ckRecords.Load(), tr.openNs)
		}
	}
}

// TestDistillBodyIsFig4 checks that the distill body, which runs Fig 4's
// module simulations one by one so that the kernel can be sampled between
// them, delivers what experiments.Fig4 prints.
func TestDistillBodyIsFig4(t *testing.T) {
	const horizon, seed = 300, 7
	inst, _, err := setupWorkload(distillWorkload("distill-tiny", "", horizon))
	if err != nil {
		t.Fatal(err)
	}
	paces := 0
	got, err := inst.body(context.Background(), seed, nil, func() { paces++ })
	if err != nil {
		t.Fatal(err)
	}
	tab, err := experiments.Fig4(context.Background(), experiments.Scale{DistillHorizon: horizon}, seed)
	if err != nil {
		t.Fatal(err)
	}
	var want []int64
	for _, row := range tab.Rows {
		for _, v := range row.Values {
			want = append(want, int64(math.Round(v*1000*horizon*1e-6)))
		}
	}
	if len(got) != len(want) || paces != len(want) {
		t.Fatalf("%d points and %d paces, Fig4 has %d", len(got), paces, len(want))
	}
	for i, p := range got {
		if p.Delivered != want[i] {
			t.Errorf("%s: delivered %d, Fig4 %d", p.Name, p.Delivered, want[i])
		}
	}
}

// TestCalibrationHelper drives the helper's protocol: one sample per
// budget, each with at least one unit per thread and a positive kernel
// time, until its input closes.
func TestCalibrationHelper(t *testing.T) {
	var out bytes.Buffer
	if err := childCalibrate(2, strings.NewReader("1000000\n3000000\n"), &out); err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(&out)
	for i := 0; i < 2; i++ {
		var s sample
		if err := dec.Decode(&s); err != nil {
			t.Fatalf("sample %d: %v", i, err)
		}
		if len(s.Units) != 2 || s.Units[0] < 1 || s.Units[1] < 1 || !(s.kernelS(false) > 0) || !(s.kernelS(true) > 0) {
			t.Errorf("sample %d: %+v, kernel time %g (wall), %g (CPU)", i, s, s.kernelS(false), s.kernelS(true))
		}
	}
	if dec.More() {
		t.Error("more samples than budgets")
	}
	if err := childCalibrate(1, strings.NewReader("soon\n"), io.Discard); err == nil {
		t.Error("a malformed budget was accepted")
	}
}

func TestTamperedReferenceFails(t *testing.T) {
	w := tinyWorkloads()[1]
	ref := referenceFor(t, w)
	pts := ref.Workloads[w.name]
	worst := 0
	for i, p := range pts {
		if p.Errors > pts[worst].Errors {
			worst = i
		}
	}
	pts[worst].Errors /= 4
	res, err := measureInProcess(w, ref.Seed, false, ref)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Failures) != 1 || res.Failures[pts[worst].Name] == nil {
		t.Fatalf("failures %v, want exactly %s", res.Failures, pts[worst].Name)
	}
	wr := workloadReport{Result: res}
	if line, ok := resultLine(&wr, false); ok || !strings.Contains(line, `"failed":1`) {
		t.Errorf("result line %s (ok=%t) does not report the failed point", line, ok)
	}
}

// TestMetricsMatchBenchmarkJSON checks that the result lines emit exactly
// the metrics BENCHMARK.json names, with its units, and that the
// workloads and bounds there are the ones in code.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(spec.EndToEnd, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %v, code %v", spec.EndToEnd, endToEnd)
	}
	if !slices.Equal(spec.PerLayer, perLayer) {
		t.Errorf("BENCHMARK.json per_layer %v, code %v", spec.PerLayer, perLayer)
	}
	for i, w := range workloads() {
		if i >= len(spec.Workloads) || spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d: code has %s (%q), BENCHMARK.json does not match", i, w.name, w.why)
		}
	}

	w := tinyWorkloads()[0]
	res, err := measureInProcess(w, 1, true, referenceFor(t, w))
	if err != nil {
		t.Fatal(err)
	}
	wr := workloadReport{Result: res}
	for _, d := range endToEnd {
		wr.Metrics = append(wr.Metrics, metricReport{metricDef: d, Value: 1})
	}
	for traced, defs := range map[bool][]metricDef{false: spec.EndToEnd, true: spec.PerLayer} {
		line, ok := resultLine(&wr, traced)
		var got struct {
			Metrics map[string]struct{ Unit string }
		}
		if err := json.Unmarshal([]byte(line), &got); err != nil || !ok {
			t.Fatalf("result line %s: ok=%t err=%v", line, ok, err)
		}
		if len(got.Metrics) != len(defs) {
			t.Errorf("traced=%t: emitted %d metrics, BENCHMARK.json names %d", traced, len(got.Metrics), len(defs))
		}
		for _, d := range defs {
			if m, ok := got.Metrics[d.Name]; !ok || m.Unit != d.Unit {
				t.Errorf("traced=%t: %s emitted as %+v (present %t), want unit %s", traced, d.Name, m, ok, d.Unit)
			}
		}
	}
}

// TestReferenceCoversWorkloads checks that the committed reference has a
// point for every point of the full-size workloads.
func TestReferenceCoversWorkloads(t *testing.T) {
	ref, err := committedReference()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads() {
		inst, _, err := setupWorkload(w)
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, p := range ref.Workloads[w.name] {
			names = append(names, p.Name)
		}
		if !slices.Equal(names, inst.names) {
			t.Errorf("%s: reference points %v, workload points %v", w.name, names, inst.names)
		}
	}
}

func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "nope"},
		{"-trace", "2"},
		{"-seconds", "-1"},
		{"-trace-out", "x.json"},
		{"-trace", "1", "-trace-out", "x.json"},
		{"extra"},
	} {
		if code := run(args, io.Discard, io.Discard); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
	}
}
