// Command hetarchbench is the repository benchmark. It runs five
// fixed-size workloads, each chosen so that a different layer of the
// simulator owns its wall clock, measures them end to end with tracing
// off, and, with -trace 1, times each layer in one more run with the
// program's flight profiler armed. It checks every output against a
// committed reference and prints every metric by name with its unit;
// BENCHMARK.json at the repository root lists the same metrics, their
// bounds and the workloads.
//
// Usage, from the repository root:
//
//	bash cmd/hetarchbench/run.sh [-workload NAME] [-seed N] [-seconds S] [-trace 0|1] [-o FILE] [-trace-out FILE]
//	go -C cmd/hetarchbench run . [the same flags]
//	go -C cmd/hetarchbench run . -write-reference testdata/reference.json
//
// Each workload runs in a child process of its own. That child runs short
// children before each timed repetition and after the last that each time
// one cold setup and then the calibration kernel, and a helper child that
// runs the kernel between the body's points; only one of them computes at
// a time. The last line of standard output is one JSON object per
// workload,
//
//	{"correct": true, "attempted": 4, "failed": 0, "metrics": {"wall_s": {"value": 2.9, "unit": "s"}, ...}}
//
// holding the end-to-end metrics with -trace 0 and the per-layer metrics
// with -trace 1. The end-to-end times are scaled to the speed of a
// reference machine by the calibration kernel (calibrate.go). The
// human-readable report goes to standard error. The exit code is 0 when
// every point passed, 1 when one failed or a run broke, and 2 on a usage
// error.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"syscall"

	"hetarch/internal/bench"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type options struct {
	seed     int64
	seconds  int
	traced   bool
	traceOut string
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("hetarchbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run (default: every workload, one after another)")
	seed := fs.Int64("seed", 1, "seed every Monte Carlo and event stream of the workload derives from")
	seconds := fs.Int("seconds", 25, fmt.Sprintf("timed repetitions continue past %d while the next one fits in this many seconds", minReps))
	traceFlag := fs.Int("trace", 0, "1 adds a traced run and prints per-layer metrics instead of end-to-end ones")
	out := fs.String("o", "", "write the full JSON report to `file`")
	traceOut := fs.String("trace-out", "", "write the traced run's spans as Chrome Trace JSON to `file` (needs -trace 1 and -workload)")
	writeRef := fs.String("write-reference", "", "run every workload once at seed 1 and write the correctness reference to `file`")
	child := fs.String("child", "", "internal: run as a child process (setup, run or calibrate)")
	threads := fs.Int("threads", 1, "internal: the calibration helper's kernel threads")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	usage := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "hetarchbench: "+format+"\n", a...)
		fs.Usage()
		return 2
	}
	switch {
	case fs.NArg() > 0:
		return usage("unexpected argument %q", fs.Arg(0))
	case *name != "" && findWorkload(*name) == nil:
		return usage("unknown workload %q (have %s)", *name, strings.Join(workloadNames(), ", "))
	case *seconds < 0:
		return usage("-seconds must be >= 0")
	case *traceFlag != 0 && *traceFlag != 1:
		return usage("-trace must be 0 or 1")
	case *traceOut != "" && (*traceFlag != 1 || *name == ""):
		return usage("-trace-out needs -trace 1 and -workload")
	case *child != "" && *child != "setup" && *child != "run" && *child != "calibrate":
		return usage("-child must be setup, run or calibrate")
	case *threads < 1 || *threads > runtime.NumCPU():
		return usage("-threads must be between 1 and %d", runtime.NumCPU())
	}
	if workers > runtime.NumCPU() {
		fmt.Fprintf(stderr, "hetarchbench: the benchmark runs %d workers but this machine has %d CPUs\n", workers, runtime.NumCPU())
		return 1
	}
	opt := options{seed: *seed, seconds: *seconds, traced: *traceFlag == 1, traceOut: *traceOut}

	var err error
	switch {
	case *child == "calibrate":
		err = childCalibrate(*threads, os.Stdin, stdout)
	case *child == "setup":
		err = childSetup(findWorkload(*name), stdout)
	case *child == "run":
		err = childRun(findWorkload(*name), opt, stdout)
	case *writeRef != "":
		err = writeReference(*writeRef)
	default:
		return parent(*name, opt, *out, stdout, stderr)
	}
	if err != nil {
		fmt.Fprintln(stderr, "hetarchbench:", err)
		return 1
	}
	return 0
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads() {
		names = append(names, w.name)
	}
	return names
}

func childSetup(w *workload, stdout io.Writer) error {
	p, err := probeSetup(w, inProcessKernel(1))
	if err != nil {
		return err
	}
	return json.NewEncoder(stdout).Encode(p)
}

func childRun(w *workload, opt options, stdout io.Writer) (err error) {
	ref, err := committedReference()
	if err != nil {
		return err
	}
	probe := func() (setupProbe, error) {
		var p setupProbe
		err := runChild(&p, "-child", "setup", "-workload", w.name, "-seed", strconv.FormatInt(opt.seed, 10))
		return p, err
	}
	cal, err := startCalibrator(w.threads)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := cal.close(); err == nil {
			err = cerr
		}
	}()
	res, err := measure(context.Background(), w, opt.seed, float64(opt.seconds), opt.traced, ref, probe, cal.sample)
	if err != nil {
		return err
	}
	res.PeakRSSMiB = peakRSSMiB()
	if opt.traceOut != "" && res.Trace != nil {
		if err := writeChromeTrace(opt.traceOut, res.Trace); err != nil {
			return err
		}
	}
	return json.NewEncoder(stdout).Encode(res)
}

func writeChromeTrace(path string, tr *tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.col.WriteChromeTrace(f); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}

// writeReference writes the correctness reference of every workload.
func writeReference(path string) error {
	ref, err := buildReference(workloads()...)
	if err != nil {
		return err
	}
	data, err := json.MarshalIndent(ref, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// childAttr makes a child process die with the process that started it,
// so that killing a run leaves none of its children computing.
func childAttr() *syscall.SysProcAttr {
	return &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}

// runChild re-executes this binary with args, waits for it and decodes
// its JSON report into v.
func runChild(v any, args ...string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	cmd := exec.Command(exe, args...)
	cmd.SysProcAttr = childAttr()
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("child %v: %w", args, err)
	}
	if err := json.Unmarshal(out.Bytes(), v); err != nil {
		return fmt.Errorf("child %v: %w", args, err)
	}
	return nil
}

type host struct {
	GitRevision string `json:"git_revision"`
	GitDirty    bool   `json:"git_dirty,omitempty"`
	GoVersion   string `json:"go_version"`
	NumCPU      int    `json:"num_cpu"`
	Workers     int    `json:"workers"`
	Seed        int64  `json:"seed"`
	MinReps     int    `json:"min_reps"`
	Seconds     int    `json:"seconds"`
	Traced      bool   `json:"traced"`
}

// metricReport is one metric of one workload with its spread: median, min
// and max over the repetitions (wall_s, cpu_s, allocs) or over the setup
// probes (setup_s). Unresolved marks a spread wider than the bound, where
// a single invocation cannot tell a regression of that size from noise.
type metricReport struct {
	metricDef
	Value      float64 `json:"value"`
	Min        float64 `json:"min"`
	Max        float64 `json:"max"`
	N          int     `json:"n"`
	Unresolved bool    `json:"unresolved,omitempty"`
}

type headlineReport struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	At    string  `json:"at"`
	Paper string  `json:"paper"`
}

type workloadReport struct {
	Name     string          `json:"name"`
	Why      string          `json:"why"`
	Error    string          `json:"error,omitempty"`
	Metrics  []metricReport  `json:"metrics,omitempty"`
	Headline *headlineReport `json:"headline,omitempty"`
	Result   *result         `json:"result,omitempty"`
}

// parent runs the selected workloads, each in its own child processes,
// prints the reports and result lines, and returns the exit code.
func parent(name string, opt options, out string, stdout, stderr io.Writer) int {
	h := host{GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(), Workers: workers,
		Seed: opt.seed, MinReps: minReps, Seconds: opt.seconds, Traced: opt.traced}
	h.GitRevision, h.GitDirty = bench.VCSRevision()
	rev := h.GitRevision
	if rev == "" {
		rev = "unknown"
	} else if h.GitDirty {
		rev += "-dirty"
	}
	fmt.Fprintf(stderr, "hetarchbench rev=%s go=%s cpus=%d workers=%d seed=%d R>=%d seconds=%d trace=%t\n",
		rev, h.GoVersion, h.NumCPU, workers, opt.seed, minReps, opt.seconds, opt.traced)

	selected := workloads()
	if name != "" {
		selected = []*workload{findWorkload(name)}
	}
	code := 0
	var reports []workloadReport
	for _, w := range selected {
		wr := runWorkload(w, opt)
		printReport(stderr, w, &wr, opt.traced)
		line, ok := resultLine(&wr, opt.traced)
		fmt.Fprintln(stdout, line)
		if !ok {
			code = 1
		}
		reports = append(reports, wr)
	}
	if out != "" {
		data, err := json.MarshalIndent(struct {
			Host      host             `json:"host"`
			Workloads []workloadReport `json:"workloads"`
		}{h, reports}, "", "  ")
		if err == nil {
			err = os.WriteFile(out, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(stderr, "hetarchbench:", err)
			code = 1
		}
	}
	return code
}

func runWorkload(w *workload, opt options) workloadReport {
	wr := workloadReport{Name: w.name, Why: w.why}
	args := []string{"-child", "run", "-workload", w.name, "-seed", strconv.FormatInt(opt.seed, 10), "-seconds", strconv.Itoa(opt.seconds)}
	if opt.traced {
		args = append(args, "-trace", "1")
	}
	if opt.traceOut != "" {
		args = append(args, "-trace-out", opt.traceOut)
	}
	res := &result{}
	err := runChild(res, args...)
	if err != nil {
		wr.Error = err.Error()
		return wr
	}
	wr.Result = res
	if len(res.Reps) == 0 {
		return wr // the first repetition failed; its points carry why
	}

	// The end-to-end times are scaled to the reference speed (calibrate.go):
	// each repetition's by the kernel samples taken during it, and each
	// setup by the sample its probe took right after it. The layer metrics
	// stay as measured. setup_s and the setup layer metrics are medians
	// over the cold probes.
	var setups []float64
	for _, p := range res.Probes {
		setups = append(setups, p.setupS())
	}
	for k := range res.Probes[0].Layers {
		var vs []float64
		for _, p := range res.Probes {
			vs = append(vs, p.Layers[k])
		}
		if res.Layers != nil {
			res.Layers[k] = median(vs)
		}
	}

	spread := func(d metricDef, vs []float64) metricReport {
		m := metricReport{metricDef: d, Value: median(vs), Min: slices.Min(vs), Max: slices.Max(vs), N: len(vs)}
		m.Unresolved = (m.Max-m.Min)/m.Value > d.Bound
		return m
	}
	var walls, cpus, allocs []float64
	for _, r := range res.Reps {
		walls = append(walls, r.WallS*res.speed(r.Samples, false))
		cpus = append(cpus, r.CPUS*res.speed(r.Samples, true))
		allocs = append(allocs, r.Allocs)
	}
	for _, d := range endToEnd {
		switch d.Name {
		case "wall_s":
			wr.Metrics = append(wr.Metrics, spread(d, walls))
		case "cpu_s":
			wr.Metrics = append(wr.Metrics, spread(d, cpus))
		case "setup_s":
			wr.Metrics = append(wr.Metrics, spread(d, setups))
		case "peak_rss_mb":
			wr.Metrics = append(wr.Metrics, spread(d, []float64{res.PeakRSSMiB}))
		case "allocs":
			wr.Metrics = append(wr.Metrics, spread(d, allocs))
		}
	}
	wr.Headline = &headlineReport{Name: w.headline.name, Value: res.Headline, Unit: w.headline.unit, At: w.headline.at, Paper: w.headline.paper}
	if wr.Headline.Paper == "" {
		wr.Headline.Paper = "unvalidated"
	}
	return wr
}

// resultLine renders the one-line JSON result and reports whether every
// point passed.
func resultLine(wr *workloadReport, traced bool) (string, bool) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Attempted: 1, Failed: 1, Metrics: map[string]value{}}
	if res := wr.Result; res != nil {
		line.Attempted, line.Failed = res.Attempted, len(res.Failures)
		if traced {
			for _, d := range perLayer {
				line.Metrics[d.Name] = value{res.Layers[d.Name], d.Unit}
			}
		} else {
			for _, m := range wr.Metrics {
				line.Metrics[m.Name] = value{m.Value, m.Unit}
			}
		}
	}
	line.Correct = line.Failed == 0
	data, err := json.Marshal(line)
	if err != nil {
		// Only a NaN or Inf measurement gets here.
		return fmt.Sprintf(`{"correct": false, "attempted": %d, "failed": %d, "metrics": {}}`, line.Attempted, line.Attempted), false
	}
	return string(data), line.Correct
}

func printReport(w io.Writer, wl *workload, wr *workloadReport, traced bool) {
	fmt.Fprintf(w, "\n== %s: %s\n", wl.name, wl.why)
	if wr.Error != "" {
		fmt.Fprintf(w, "FAILED: %s\n", wr.Error)
		return
	}
	res := wr.Result
	fmt.Fprintf(w, "%-14s %-6s %14s %14s %14s %3s %6s\n", "metric", "unit", "value", "min", "max", "n", "bound")
	for _, m := range wr.Metrics {
		flag := ""
		if m.Unresolved {
			flag = "  unresolved"
		}
		fmt.Fprintf(w, "%-14s %-6s %14.6g %14.6g %14.6g %3d %5.0f%%%s\n", m.Name, m.Unit, m.Value, m.Min, m.Max, m.N, m.Bound*100, flag)
	}
	if len(res.Reps) > 0 {
		all := res.allSamples()
		fmt.Fprintf(w, "times are at the reference speed: measured × %.4g (wall), × %.4g (CPU) over the run; kernel on %d threads: %.4g ms wall, %.4g ms CPU here, %.4g ms on the reference machine\n",
			res.speed(all, false), res.speed(all, true), res.Threads, res.kernelS(all, false)*1e3, res.kernelS(all, true)*1e3, refKernelS[res.Threads]*1e3)
	}
	if h := wr.Headline; h != nil {
		fmt.Fprintf(w, "%s = %.6g %s at %s (paper: %s)\n", h.Name, h.Value, h.Unit, h.At, h.Paper)
	}
	fmt.Fprintf(w, "points: %d attempted, %d failed\n", res.Attempted, len(res.Failures))
	failed := make([]string, 0, len(res.Failures))
	for p := range res.Failures {
		failed = append(failed, p)
	}
	sort.Strings(failed)
	for _, p := range failed {
		fmt.Fprintf(w, "  FAIL %s: %s\n", p, strings.Join(res.Failures[p], "; "))
	}
	if traced && res.Layers != nil {
		fmt.Fprintf(w, "per-layer (traced run %.3f s):\n", res.TracedS)
		for _, d := range perLayer {
			fmt.Fprintf(w, "  %-34s %14.6g %s\n", d.Name, res.Layers[d.Name], d.Unit)
		}
	}
}
