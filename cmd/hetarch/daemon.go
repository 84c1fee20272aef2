// The `hetarch serve` daemon: a long-lived, multi-tenant experiment
// service. Clients POST experiment specs to /jobs and poll (or SSE-follow)
// job state; the internal/jobs manager schedules them on a bounded worker
// pool, journals every transition, and this file supplies the Runner that
// actually executes an experiment — per-job checkpoint, per-job output
// artifact, run-ledger stamping. See API.md for the wire contract and
// EXPERIMENTS.md ("Operating hetarchd") for the operator workflow.
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"hetarch/internal/core"
	dsecache "hetarch/internal/dse/cache"
	"hetarch/internal/jobs"
	"hetarch/internal/jsonl"
	"hetarch/internal/mc"
	"hetarch/internal/mc/checkpoint"
	"hetarch/internal/obs"
	"hetarch/internal/obs/ledger"
	"hetarch/internal/obs/runlog"
	"hetarch/internal/obs/runtimemetrics"
	"hetarch/internal/obs/serve"
	"hetarch/internal/obs/trace"
)

// daemonConfig is the parsed `hetarch serve` configuration, separated from
// flag parsing so tests can drive daemonRun with a cancellable context.
type daemonConfig struct {
	listen     string
	dataDir    string
	addrFile   string
	logFormat  string
	ledgerDir  string
	cacheDir   string
	pool       int
	tenantJobs int
	maxQueue   int
}

// daemonMain is the `hetarch serve` subcommand: parse flags, install
// signal handling on ctx, and run the daemon until SIGINT/SIGTERM.
func daemonMain(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("hetarch serve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: hetarch serve -data-dir DIR [-listen ADDR] [-pool N] [-tenant-jobs N]")
		fmt.Fprintln(stderr, "                     [-max-queue N] [-addr-file FILE] [-cache-dir DIR]")
		fmt.Fprintln(stderr, "                     [-ledger-dir DIR] [-log-format text|json]")
		fs.PrintDefaults()
	}
	cfg := daemonConfig{}
	fs.StringVar(&cfg.listen, "listen", "127.0.0.1:7080", "serve the job API and telemetry on `addr`")
	fs.StringVar(&cfg.dataDir, "data-dir", "", "job journal and per-job artifacts live under `dir` (required)")
	fs.StringVar(&cfg.addrFile, "addr-file", "", "write the bound address to `file` once listening (for scripts using :0)")
	fs.StringVar(&cfg.logFormat, "log-format", runlog.FormatText, "structured event-log format on stderr: text or json")
	fs.StringVar(&cfg.ledgerDir, "ledger-dir", "", "append each job's envelope to the run ledger in `dir` (default $HETARCH_LEDGER_DIR, then ~/.hetarch; \"off\" disables)")
	fs.StringVar(&cfg.cacheDir, "cache-dir", "", "persist standard-cell characterizations to `dir`, shared across jobs")
	fs.IntVar(&cfg.pool, "pool", 0, "worker-goroutine budget jobs draw from (0 = NumCPU); a job weighs and runs with its resolved workers, clamped to the pool")
	fs.IntVar(&cfg.tenantJobs, "tenant-jobs", 0, "per-tenant running-job limit (0 = default 4)")
	fs.IntVar(&cfg.maxQueue, "max-queue", 0, "reject submissions past `N` unfinished jobs (0 = default 1024)")
	if err := fs.Parse(args); err != nil {
		return exitUsage
	}
	if cfg.dataDir == "" {
		fmt.Fprintln(stderr, "hetarch: serve: -data-dir is required")
		fs.Usage()
		return exitUsage
	}
	if cfg.logFormat != runlog.FormatText && cfg.logFormat != runlog.FormatJSON {
		fmt.Fprintf(stderr, "hetarch: serve: -log-format must be %q or %q, got %q\n", runlog.FormatText, runlog.FormatJSON, cfg.logFormat)
		return exitUsage
	}
	if cfg.pool < 0 || cfg.tenantJobs < 0 || cfg.maxQueue < 0 {
		fmt.Fprintln(stderr, "hetarch: serve: -pool, -tenant-jobs and -max-queue must be >= 0")
		return exitUsage
	}
	ctx, stopSignals := signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	return daemonRun(ctx, cfg, stdout, stderr)
}

// daemonRun is the daemon's lifetime: open the ledger and job manager,
// start the HTTP server and dispatcher, then wait for ctx (the signal
// context) and wind everything down. In-flight jobs checkpoint and stay
// journaled as running, so the next start resumes them. Every job context
// derives from ctx, so mc bindings on it (tests bind a fault injector)
// reach every job.
func daemonRun(ctx context.Context, cfg daemonConfig, stdout, stderr io.Writer) int {
	daemonID := runlog.MintID(int64(os.Getpid()))
	lg, err := runlog.New(stderr, cfg.logFormat, daemonID)
	if err != nil {
		fmt.Fprintln(stderr, "hetarch: serve:", err)
		return exitUsage
	}
	runlog.Set(lg)
	defer runlog.Set(nil)

	led, err := openLedger(cfg.ledgerDir, lg)
	if err != nil {
		fmt.Fprintln(stderr, "hetarch: serve: ledger-dir:", err)
		return exitError
	}
	var ledgerPath string
	if led != nil {
		ledgerPath = led.Path()
		defer led.Close()
	}

	// The shared characterization cache, when configured, serves every
	// job: it is content-addressed, so concurrent jobs stay bit-identical.
	var charStore core.CharacterizationStore
	if cfg.cacheDir != "" {
		d, err := dsecache.Open(cfg.cacheDir)
		if err != nil {
			fmt.Fprintln(stderr, "hetarch: serve: cache-dir:", err)
			return exitError
		}
		d.SetRunID(daemonID)
		charStore = d
		lg.Info(runlog.EvCacheOpen, "dir", d.Path())
	}

	mgr, err := jobs.Open(jobs.Config{
		Dir:        cfg.dataDir,
		Runner:     daemonRunner(stderr, led, charStore),
		PoolWeight: cfg.pool,
		TenantJobs: cfg.tenantJobs,
		MaxQueue:   cfg.maxQueue,
		Validate: func(s jobs.Spec) error {
			if !knownExperiment(s.Experiment) {
				return fmt.Errorf("unknown experiment %q", s.Experiment)
			}
			return nil
		},
	})
	if err != nil {
		fmt.Fprintln(stderr, "hetarch: serve:", err)
		return exitError
	}

	// The job API rides the telemetry mux, so one address serves /jobs,
	// /metrics, /runs, and /debug/pprof together.
	rtPoller := runtimemetrics.Start(obs.Default, time.Second)
	defer rtPoller.Stop()
	srv, err := serve.Start(cfg.listen, serve.Options{
		Registry:   obs.Default,
		Trace:      trace.Default,
		LedgerPath: ledgerPath,
		Jobs:       mgr.Handler(),
	})
	if err != nil {
		fmt.Fprintln(stderr, "hetarch: serve:", err)
		mgr.Close()
		return exitError
	}
	if cfg.addrFile != "" {
		// Replaced whole: a script polling the file never reads a torn address.
		if err := jsonl.WriteFile(cfg.addrFile, []byte(srv.Addr()+"\n")); err != nil {
			fmt.Fprintln(stderr, "hetarch: serve: addr-file:", err)
			srv.Close()
			mgr.Close()
			return exitError
		}
	}
	lg.Info(runlog.EvTelemetryListen, "url", "http://"+srv.Addr()+"/",
		"endpoints", "jobs,metrics,runs,debug/pprof", "data_dir", cfg.dataDir)
	fmt.Fprintf(stdout, "hetarchd listening on http://%s/ (data dir %s)\n", srv.Addr(), cfg.dataDir)

	mgr.Start(ctx)
	<-ctx.Done()

	// Shutdown order: stop accepting HTTP first (drains SSE streams), then
	// wait for jobs — their contexts share ctx, so they are already
	// checkpointing their way out.
	sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	srv.Shutdown(sctx)
	if err := mgr.Close(); err != nil {
		fmt.Fprintln(stderr, "hetarch: serve:", err)
		return exitError
	}
	return exitOK
}

// daemonRunner builds the jobs.Runner that executes one experiment job:
// per-job checkpoint metered and bound under mc.WithCheckpoint (scoped, so
// concurrent jobs never share run numbering), table output to a per-job
// artifact written atomically, and a run-ledger envelope keyed by the job
// ID so `hetarch runs show <jobID>` verifies the artifact digests. The job
// runs with the worker count the pool granted it (job.Spec.Workers).
func daemonRunner(stderr io.Writer, led *ledger.Ledger, charStore core.CharacterizationStore) jobs.Runner {
	return func(ctx context.Context, job jobs.Job, dir string, progress func(int64)) (jobs.Result, error) {
		spec := job.Spec
		sc := scaleOf(spec)

		// The per-job checkpoint is what makes a daemon restart resume
		// rather than recompute: the job ID (not a fresh run ID) is the
		// checkpoint identity, stable across restarts.
		ckptPath := filepath.Join(dir, "checkpoint.jsonl")
		meta := checkpoint.NewMeta("hetarchd", spec.Experiment, spec.Scale, spec.Seed, spec.Shots)
		meta.RunID = job.ID
		cp, err := checkpoint.Open(ckptPath, meta)
		if err != nil {
			return jobs.Result{}, err
		}
		meter := &runMeter{cp: cp, progress: progress}
		rctx := mc.WithCheckpoint(ctx, meter)

		outName := "output.txt"
		if spec.JSON {
			outName = "output.json"
		}
		outPath := filepath.Join(dir, outName)
		var out bytes.Buffer
		emit := tablePrinter(&out)
		if spec.JSON {
			emit = tableJSON(&out)
		}
		runners := buildRunners(rctx, sc, spec.Seed, spec.Workers, &out, stderr, emit, charStore)

		start := time.Now()
		var runErr error
		if spec.Experiment == "all" {
			for _, n := range allOrder {
				if runErr = runners[n](); runErr != nil {
					runErr = fmt.Errorf("%s: %w", n, runErr)
					break
				}
			}
		} else {
			runErr = runners[spec.Experiment]()
		}
		cp.Close() // flush before digesting the checkpoint artifact
		if runErr != nil {
			// The partial output is discarded; the checkpoint is the resume
			// state and stays. Interrupted jobs get no ledger envelope —
			// exactly one OK/error envelope per job, at its terminal run.
			if !interrupted(ctx, runErr) {
				appendJobEnvelope(stderr, led, job, ledger.StatusError, runErr, start, nil, meter)
			}
			return jobs.Result{}, runErr
		}
		if err := jsonl.WriteFile(outPath, out.Bytes()); err != nil {
			return jobs.Result{}, err
		}

		res := jobs.Result{Metrics: meter.headline(time.Since(start).Seconds())}
		for kind, path := range map[string]string{"output": outPath, "checkpoint": ckptPath} {
			if _, err := os.Stat(path); err != nil {
				continue // e.g. no checkpoint for non-Monte-Carlo experiments
			}
			a, err := ledger.FileArtifact(kind, path)
			if err != nil {
				return jobs.Result{}, err
			}
			res.Artifacts = append(res.Artifacts, a)
		}
		appendJobEnvelope(stderr, led, job, ledger.StatusOK, nil, start, res.Artifacts, meter)
		return res, nil
	}
}

// appendJobEnvelope stamps one job into the run ledger: RunID is the job
// ID, Tool is "hetarchd", and the artifact manifest carries the sha256
// digests `hetarch runs show` verifies. Ledger failures are reported but
// never fail the job — provenance is results-neutral.
func appendJobEnvelope(stderr io.Writer, led *ledger.Ledger, job jobs.Job, status string, runErr error,
	start time.Time, artifacts []ledger.Artifact, meter *runMeter) {
	if led == nil {
		return
	}
	e := newEnvelope("hetarchd", job.ID, job.Spec, start, status, runErr, meter)
	e.Args = []string{"serve", "tenant:" + job.Tenant, "fingerprint:" + job.Fingerprint}
	e.Artifacts = artifacts
	if err := led.Append(e); err != nil {
		fmt.Fprintln(stderr, "hetarch: serve: ledger:", err)
	}
}
