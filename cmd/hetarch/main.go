// Command hetarch regenerates every table and figure of the HetArch paper's
// evaluation section from the reproduction library.
//
// Usage:
//
//	hetarch <experiment> [-quick] [-seed N] [-shots N] [-json] [-metrics]
//	        [-progress] [-record FILE] [-checkpoint FILE] [-cpuprofile FILE]
//	        [-memprofile FILE] [-trace-out FILE] [-trace-sample N]
//	        [-log-format text|json] [-ledger-dir DIR] [-timeout D]
//	hetarch runs <list|show|diff|gc> [args]
//
// where experiment is one of: devices (Table 1), cells (Table 2), fig3,
// fig4, fig6, fig7, fig9, table3, fig12, table4, dse, devstudy, capacity,
// protocol, all.
//
// Every invocation mints a run ID (deterministic ULID-style: timestamp +
// entropy derived from -seed) that is stamped into the structured event
// log, the recorder header, the checkpoint file and the trace metadata,
// and appends one envelope — args, seed, git revision, exit status,
// headline metrics, artifact manifest with sha256 digests — to the
// append-only run ledger (-ledger-dir, default $HETARCH_LEDGER_DIR then
// ~/.hetarch; "off" disables). `hetarch runs` audits that ledger: list
// past runs, show one with digest verification, diff two runs or recorder
// files through the obs/diff gates, gc runs whose artifacts are gone.
//
// Operational events (run start/done, checkpoint resume, shard faults,
// trace written, ...) go to stderr through log/slog — logfmt-style text by
// default, one JSON object per line under -log-format json.
//
// -record journals the run to a JSONL flight-recorder artifact (config,
// seeds, git revision, per-batch counts, final metrics) that `hetarch runs
// diff` can diff against a baseline.
//
// -trace-out arms the engine flight profiler: Monte Carlo shard phases
// (queue wait, execution, sample/decode sub-phases, merge) and DSE point
// evaluations are recorded on per-worker lanes — deterministically sampled
// 1-in-N by shard/point index (-trace-sample, default 8, 1 = everything) so
// tracing cannot perturb results — next to unsampled wall-time events for
// each experiment and table row on a "run" track, and written as Chrome
// Trace Event JSON, which opens directly in Perfetto
// (https://ui.perfetto.dev) or chrome://tracing. -metrics and -record also
// sample runtime/metrics (heap, GC pauses, goroutines, scheduling latency)
// into runtime.* gauges once, at the end of the run, so the final snapshot
// carries them.
//
// -checkpoint makes the run resumable: completed Monte Carlo shards are
// persisted to the given JSONL file, and an interrupted run (SIGINT/SIGTERM)
// re-invoked with the same flags skips them, producing output bit-identical
// to an uninterrupted run. -timeout D imposes a whole-run deadline that
// exits through the same path. Exit codes: 0 success, 1 runtime error, 2
// usage error, 3 interrupted or timed out (checkpoint, if any, flushed).
//
// dse characterizes each distinct standard cell once per process and
// reports that accounting on stderr (and in -metrics), never on stdout.
//
// Every run keeps one shot tally: the Monte Carlo shards it accounts for,
// executed or replayed from -checkpoint, feed the -progress heartbeat, the
// recorder batches, the ledger headline and the run.done event alike.
//
// Experiment results go to stdout; everything else — timing lines, the
// -progress heartbeat, and the -metrics telemetry (the metric registry
// snapshot) — goes to stderr, so `-json` output stays machine-parseable.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"

	"hetarch/internal/experiments"
	"hetarch/internal/mc"
	"hetarch/internal/mc/checkpoint"
	"hetarch/internal/obs"
	"hetarch/internal/obs/ledger"
	"hetarch/internal/obs/recorder"
	"hetarch/internal/obs/runlog"
	"hetarch/internal/obs/runtimemetrics"
	"hetarch/internal/obs/trace"
)

// Exit codes. Interrupted is distinct so scripts (and CI) can tell "killed
// mid-run, checkpoint flushed, re-run to resume" from a real failure.
const (
	exitOK          = 0
	exitError       = 1
	exitUsage       = 2
	exitInterrupted = 3
)

func main() {
	os.Exit(run(context.Background(), os.Args[1:], os.Stdout, os.Stderr))
}

// run is one invocation. ctx is the run's parent scope: cancellation and
// any mc binding it carries (tests bind a fault injector) reach every
// Monte Carlo run of the invocation.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("hetarch", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Usage = func() { usage(fs, stderr) }
	quick := fs.Bool("quick", false, "reduced Monte Carlo effort (CI scale)")
	seed := fs.Int64("seed", 1, "base RNG seed")
	shots := fs.Int("shots", 0, "override Monte Carlo shots per point (0 = scale default)")
	workers := fs.Int("workers", 0, "Monte Carlo worker goroutines (0 = NumCPU, 1 = serial; results are identical at any setting)")
	asJSON := fs.Bool("json", false, "emit table experiments as JSON (for plotting scripts)")
	metrics := fs.Bool("metrics", false, "print telemetry (the metric registry snapshot) to stderr after the run")
	progress := fs.Bool("progress", false, "heartbeat on stderr with shots/sec and ETA")
	record := fs.String("record", "", "journal the run to a JSONL flight-recorder artifact at `file`")
	ckptPath := fs.String("checkpoint", "", "persist completed Monte Carlo shards to `file`; rerunning with the same flags resumes")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile to `file`")
	memprofile := fs.String("memprofile", "", "write a heap profile to `file` at exit")
	traceOut := fs.String("trace-out", "", "write a flight-profiler trace (Chrome Trace Event JSON, opens in Perfetto) to `file`")
	traceSample := fs.Int("trace-sample", trace.DefaultSampleN, "trace every `N`th shard/point by index (1 = all; deterministic, never affects results)")
	logFormat := fs.String("log-format", runlog.FormatText, "structured event-log format on stderr: text or json")
	ledgerDir := fs.String("ledger-dir", "", "append this run's envelope to the run ledger in `dir` (default $HETARCH_LEDGER_DIR, then ~/.hetarch; \"off\" disables)")
	timeout := fs.Duration("timeout", 0, "whole-run deadline; a run that exceeds it exits with the interrupted code (3), resumable via -checkpoint")
	if len(args) == 0 {
		fmt.Fprintln(stderr, "hetarch: missing experiment name")
		usage(fs, stderr)
		return exitUsage
	}
	name := args[0]
	if name == "runs" {
		return runsMain(args[1:], stdout, stderr)
	}
	if strings.HasPrefix(name, "-") {
		fmt.Fprintf(stderr, "hetarch: first argument must be the experiment name, got flag %q\n", name)
		usage(fs, stderr)
		return exitUsage
	}
	if !knownExperiment(name) {
		fmt.Fprintf(stderr, "hetarch: unknown experiment %q\n", name)
		usage(fs, stderr)
		return exitUsage
	}
	if err := fs.Parse(args[1:]); err != nil {
		return exitUsage // flag package already printed the problem to stderr
	}
	// flag stops at the first non-flag argument, so a stray word would
	// silently drop every flag after it.
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "hetarch: unexpected argument %q\n", fs.Arg(0))
		usage(fs, stderr)
		return exitUsage
	}

	// Flag validation: misconfiguration is a usage error (exit 2), reported
	// before any work starts.
	shotsSet, traceSampleSet, timeoutSet := false, false, false
	fs.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "shots":
			shotsSet = true
		case "trace-sample":
			traceSampleSet = true
		case "timeout":
			timeoutSet = true
		}
	})
	if shotsSet && *shots <= 0 {
		fmt.Fprintf(stderr, "hetarch: -shots must be positive, got %d\n", *shots)
		usage(fs, stderr)
		return exitUsage
	}
	if *workers < 0 {
		fmt.Fprintf(stderr, "hetarch: -workers must be >= 0, got %d\n", *workers)
		usage(fs, stderr)
		return exitUsage
	}
	if *traceSample < 1 {
		fmt.Fprintf(stderr, "hetarch: -trace-sample must be >= 1, got %d\n", *traceSample)
		usage(fs, stderr)
		return exitUsage
	}
	if timeoutSet && *timeout <= 0 {
		fmt.Fprintf(stderr, "hetarch: -timeout must be positive, got %v\n", *timeout)
		usage(fs, stderr)
		return exitUsage
	}
	if traceSampleSet && *traceOut == "" {
		fmt.Fprintln(stderr, "hetarch: -trace-sample has no effect without -trace-out")
		usage(fs, stderr)
		return exitUsage
	}
	if *logFormat != runlog.FormatText && *logFormat != runlog.FormatJSON {
		fmt.Fprintf(stderr, "hetarch: -log-format must be %q or %q, got %q\n", runlog.FormatText, runlog.FormatJSON, *logFormat)
		usage(fs, stderr)
		return exitUsage
	}

	scale, sc := "full", experiments.Full()
	if *quick {
		scale, sc = "quick", experiments.Quick()
	}
	if *shots > 0 {
		sc.Shots = *shots
	}
	sc.Workers = *workers

	// Run identity: a deterministic-format ULID (mint time + entropy from
	// -seed) stamped into every event, artifact, and the ledger envelope.
	// The header is the recorder artifact's build/host fact sheet.
	runID := runlog.MintID(*seed)
	hdr := recorder.NewHeader("hetarch", name, scale, *seed, mc.ResolveWorkers(*workers), args)
	hdr.RunID = runID
	lg, err := runlog.New(stderr, *logFormat, runID)
	if err != nil {
		fmt.Fprintln(stderr, "hetarch:", err) // unreachable: format validated above
		return exitUsage
	}
	runlog.Set(lg)
	defer runlog.Set(nil)
	lg.Info(runlog.EvRunStart, "experiment", name, "scale", scale,
		"seed", *seed, "workers", hdr.Workers, "git_revision", hdr.GitRevision, "git_dirty", hdr.GitDirty)

	led, err := openLedger(*ledgerDir, lg)
	if err != nil {
		fmt.Fprintln(stderr, "hetarch: ledger-dir:", err)
		return exitError
	}
	if led != nil {
		defer led.Close()
	}

	// SIGINT/SIGTERM cancel the run context: the mc engine stops dispatching
	// shards, in-flight shards finish (and checkpoint), and the run winds
	// down through the same path as a normal exit — recorder flushed,
	// heartbeat stopped.
	ctx, stopSignals := signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	// The whole-run deadline rides the same cancellation path as a signal:
	// shards stop dispatching, the checkpoint flushes, and the run exits
	// with the interrupted code so a timed-out CI sweep is resumable.
	if *timeout > 0 {
		var cancelTimeout context.CancelFunc
		ctx, cancelTimeout = context.WithTimeout(ctx, *timeout)
		defer cancelTimeout()
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(stderr, "hetarch: cpuprofile:", err)
			return exitError
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(stderr, "hetarch: cpuprofile:", err)
			return exitError
		}
		defer pprof.StopCPUProfile()
	}
	// The flight profiler records into a fresh buffer per run; sampling is
	// by shard/point index, so an armed profiler never changes results.
	if *traceOut != "" {
		trace.Default.Enable(trace.DefaultCapacity, *traceSample)
		trace.Default.SetRunID(runID)
		defer trace.Default.Disable()
	}
	// The run's one shot tally. It is bound under mc.WithCheckpoint below,
	// wrapping the -checkpoint store when there is one.
	meter := &runMeter{}

	// -progress ticks the heartbeat on stderr. Stop is idempotent: the
	// deferred call guards every early error return, the explicit one below
	// sequences the final summary line before the telemetry output.
	var hb *obs.Heartbeat
	if *progress {
		hb = obs.StartHeartbeat(stderr, 2*time.Second, experiments.ApproxShots(name, sc), meter.shots.Load)
		defer hb.Stop()
	}

	// resumedFrom is the interrupted run whose checkpoint this run adopted
	// (recorded in the ledger envelope as provenance). The checkpoint scope
	// spans the whole invocation, so the runs of an `all` sequence are
	// numbered across every experiment in it.
	resumedFrom := ""
	if *ckptPath != "" {
		meta := checkpoint.NewMeta("hetarch", name, scale, *seed, *shots)
		meta.RunID = runID
		cp, err := checkpoint.Open(*ckptPath, meta)
		if err != nil {
			fmt.Fprintln(stderr, "hetarch: checkpoint:", err)
			return exitError
		}
		if n := cp.Resumed(); n > 0 {
			if from := cp.Meta().RunID; from != "" && from != runID {
				resumedFrom = from
			}
			lg.Info(runlog.EvCheckpointResume, "experiment", name, "path", *ckptPath,
				"shards_done", n, "from_run", resumedFrom)
		}
		defer cp.Close()
		meter.cp = cp
	}
	ctx = mc.WithCheckpoint(ctx, meter)

	var rec *recorder.FileWriter
	if *record != "" {
		var err error
		rec, err = recorder.CreateFile(*record)
		if err != nil {
			fmt.Fprintln(stderr, "hetarch: record:", err)
			return exitError
		}
		defer rec.Close()
		if err := rec.WriteHeader(hdr); err != nil {
			fmt.Fprintln(stderr, "hetarch: record:", err)
			return exitError
		}
	}

	emit := tablePrinter(stdout)
	if *asJSON {
		emit = tableJSON(stdout)
	}
	runners := buildRunners(ctx, sc, *seed, *workers, stdout, stderr, emit)

	runStart := time.Now()

	// appendLedger writes the run's envelope once the outcome is known. It
	// runs after the recorder is finalized and the trace file is written, so
	// the manifest digests cover the artifacts' final bytes. A ledger write
	// failure is reported but never changes the exit code: provenance is
	// results-neutral by construction.
	appendLedger := func(status string, runErr error) {
		if led == nil {
			return
		}
		wall := time.Since(runStart).Seconds()
		e := ledger.Envelope{
			RunID:       runID,
			Tool:        "hetarch",
			Experiment:  name,
			Scale:       scale,
			Seed:        *seed,
			Shots:       *shots,
			Workers:     hdr.Workers,
			Args:        args,
			GoVersion:   hdr.GoVersion,
			GitRevision: hdr.GitRevision,
			GitDirty:    hdr.GitDirty,
			StartedAt:   runStart.UTC().Format(time.RFC3339),
			EndedAt:     time.Now().UTC().Format(time.RFC3339),
			WallSeconds: wall,
			Status:      status,
			ResumedFrom: resumedFrom,
			Metrics:     ledger.NewHeadline(meter.shots.Load(), meter.errs.Load(), wall),
		}
		if runErr != nil {
			e.Error = runErr.Error()
		}
		add := func(kind, path string) {
			if path == "" {
				return
			}
			a, err := ledger.FileArtifact(kind, path)
			if err != nil {
				lg.Warn(runlog.EvLedgerDisabled, "artifact", path, "error", err.Error())
				return
			}
			e.Artifacts = append(e.Artifacts, a)
		}
		add("recorder", *record)
		add("checkpoint", *ckptPath)
		add("trace", *traceOut)
		if err := led.Append(e); err != nil {
			fmt.Fprintln(stderr, "hetarch: ledger:", err)
		}
	}

	runOne := func(n string) error {
		defer trace.Span("run", "run.experiment", n)()
		start := time.Now()
		shots0, errs0 := meter.shots.Load(), meter.errs.Load()
		err := runners[n]()
		if rec != nil {
			total := meter.shots.Load()
			batch := recorder.Batch{
				Name:        n,
				WallSeconds: time.Since(start).Seconds(),
				Shots:       total - shots0,
				Errors:      meter.errs.Load() - errs0,
				TotalShots:  total,
			}
			if werr := rec.WriteBatch(batch); werr != nil && err == nil {
				err = fmt.Errorf("record: %w", werr)
			}
		}
		return err
	}

	var runErr error
	if name == "all" {
		for _, n := range allOrder {
			start := time.Now()
			if err := runOne(n); err != nil {
				runErr = fmt.Errorf("%s: %w", n, err)
				break
			}
			// Timing is telemetry: keep it off stdout so -json output (and
			// any piped table output) stays clean.
			lg.Info(runlog.EvExperimentDone, "experiment", n, "wall", time.Since(start).Round(time.Millisecond).String())
		}
	} else {
		runErr = runOne(name)
	}
	if *metrics || rec != nil {
		// One runtime sample before the final snapshot is read: every
		// runtime.* gauge is cumulative or an end-of-run value.
		runtimemetrics.Sample(obs.Default)
	}
	if rec != nil {
		final := recorder.Final{
			WallSeconds: time.Since(runStart).Seconds(),
			Metrics:     obs.Default.Snapshot(),
		}
		if runErr != nil {
			final.Err = runErr.Error()
		}
		if err := rec.FinalizeAtomic(final); err != nil && runErr == nil {
			runErr = fmt.Errorf("record: %w", err)
		}
	}
	if hb != nil {
		hb.Stop() // final summary line, before any telemetry output
	}
	// The trace is written even for failed or interrupted runs — profiling
	// a run that went wrong is the point of a flight recorder.
	if *traceOut != "" {
		if err := writeTraceFile(*traceOut); err != nil {
			fmt.Fprintln(stderr, "hetarch: trace-out:", err)
			if runErr == nil {
				appendLedger(ledger.StatusError, err)
				return exitError
			}
		} else {
			lg.Info(runlog.EvTraceWritten, "path", *traceOut, "events", trace.Default.Len(),
				"dropped", trace.Default.Dropped(), "viewer", "https://ui.perfetto.dev")
		}
	}
	if runErr != nil {
		if interrupted(ctx, runErr) {
			stopSignals() // restore default handling: a second ^C kills immediately
			resume := ""
			if *ckptPath != "" {
				resume = "hetarch " + strings.Join(args, " ")
			}
			lg.Warn(runlog.EvRunInterrupted, "error", runErr.Error(), "checkpoint", *ckptPath, "resume", resume)
			appendLedger(ledger.StatusInterrupted, runErr)
			return exitInterrupted
		}
		fmt.Fprintln(stderr, "hetarch:", runErr)
		appendLedger(ledger.StatusError, runErr)
		return exitError
	}
	appendLedger(ledger.StatusOK, nil)
	lg.Info(runlog.EvRunDone, "status", ledger.StatusOK,
		"wall_seconds", time.Since(runStart).Seconds(), "shots", meter.shots.Load())

	if *metrics {
		if err := emitTelemetry(stderr, *asJSON); err != nil {
			fmt.Fprintln(stderr, "hetarch:", err)
			return exitError
		}
	}
	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fmt.Fprintln(stderr, "hetarch: memprofile:", err)
			return exitError
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintln(stderr, "hetarch: memprofile:", err)
			return exitError
		}
	}
	return exitOK
}

// allOrder is the "all" meta-experiment's sequence. It doubles as the list
// of valid experiment names, so usage and validation stay in sync with the
// runner map.
var allOrder = []string{"devices", "cells", "fig3", "fig4", "fig6", "fig7", "fig9", "table3", "fig12", "table4", "dse", "devstudy", "capacity", "protocol"}

func knownExperiment(name string) bool {
	if name == "all" {
		return true
	}
	for _, n := range allOrder {
		if n == name {
			return true
		}
	}
	return false
}

// interrupted reports whether the run error is the run context dying — a
// signal (context.Canceled) or the -timeout deadline (DeadlineExceeded) —
// as opposed to a genuine failure that happens to wrap a context error
// from elsewhere. Both exit 3: the checkpoint, if any, is flushed, and
// re-running the same flags resumes.
func interrupted(ctx context.Context, err error) bool {
	return ctx.Err() != nil &&
		(errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded))
}

// emitTelemetry renders the metric snapshot: an aligned text table
// normally, a single JSON object ({"metrics": ...}) when the run itself is
// JSON.
func emitTelemetry(w io.Writer, asJSON bool) error {
	snap := obs.Default.Snapshot()
	if asJSON {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(struct {
			Metrics obs.Snapshot `json:"metrics"`
		}{snap})
	}
	fmt.Fprintln(w, "== telemetry ==")
	snap.WriteTable(w)
	return nil
}

// buildRunners maps experiment names to their runner closures; ctx carries
// the run's cancellation and checkpoint scope into every Monte Carlo
// experiment.
func buildRunners(ctx context.Context, sc experiments.Scale, seed int64, workers int,
	stdout, stderr io.Writer, emit func(func() (*experiments.Table, error)) func() error) map[string]func() error {
	return map[string]func() error{
		"devices": func() error { experiments.Table1(stdout); return nil },
		"cells":   func() error { return experiments.Table2(stdout) },
		"fig3":    emit(func() (*experiments.Table, error) { return experiments.Fig3(ctx, sc, seed) }),
		"fig4":    emit(func() (*experiments.Table, error) { return experiments.Fig4(ctx, sc, seed) }),
		"fig6":    emit(func() (*experiments.Table, error) { return experiments.Fig6(ctx, sc, seed) }),
		"fig7":    emit(func() (*experiments.Table, error) { return experiments.Fig7(ctx, sc, seed) }),
		"fig9":    emit(func() (*experiments.Table, error) { return experiments.Fig9(ctx, sc, seed) }),
		"table3":  emit(func() (*experiments.Table, error) { return experiments.Table3(ctx, sc, seed) }),
		"fig12":   emit(func() (*experiments.Table, error) { return experiments.Fig12(ctx, sc, seed) }),
		"table4":  emit(func() (*experiments.Table, error) { return experiments.Table4(ctx, sc, seed) }),
		"dse": emit(func() (*experiments.Table, error) {
			r, err := experiments.DSE(ctx, workers)
			if err != nil {
				return nil, err
			}
			// Cache accounting is telemetry, so it goes to stderr.
			fmt.Fprintf(stderr, "dse: %d grid points, %d characterizations requested, %d served from cache (%.0f%%)\n",
				len(r.Results), r.Calls, r.Hits, 100*float64(r.Hits)/float64(r.Calls))
			return r.Table(), nil
		}),
		"devstudy": emit(func() (*experiments.Table, error) { return experiments.DeviceStudy(ctx, sc, seed) }),
		"capacity": emit(func() (*experiments.Table, error) { return experiments.CapacitySweep(ctx, sc, seed) }),
		"protocol": func() error { return experiments.ProtocolCheck(stdout, seed) },
	}
}

func tablePrinter(w io.Writer) func(func() (*experiments.Table, error)) func() error {
	return func(build func() (*experiments.Table, error)) func() error {
		return func() error {
			t, err := build()
			if err != nil {
				return err
			}
			t.Fprint(w)
			return nil
		}
	}
}

func tableJSON(w io.Writer) func(func() (*experiments.Table, error)) func() error {
	return func(build func() (*experiments.Table, error)) func() error {
		return func() error {
			t, err := build()
			if err != nil {
				return err
			}
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			return enc.Encode(t)
		}
	}
}

// writeTraceFile dumps the flight profiler's buffer as Chrome Trace Event
// JSON.
func writeTraceFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	werr := trace.Default.WriteChromeTrace(f)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	return werr
}

func usage(fs *flag.FlagSet, w io.Writer) {
	fmt.Fprintf(w, "usage: hetarch <%s|all> [flags]\n", strings.Join(allOrder, "|"))
	fmt.Fprintln(w, "       hetarch runs <list|show|diff|gc> [args]   (audit the run ledger)")
	fs.PrintDefaults()
}
