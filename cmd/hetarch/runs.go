// The `hetarch runs` subcommand: audit the run ledger. Subcommands:
//
//	runs list               table of recorded runs (chronological)
//	runs show <id>          one run's envelope + artifact manifest, with
//	                        every sha256 digest re-verified against disk
//	runs diff <a> <b>       compare two recorder artifacts through the
//	                        internal/obs/diff gates; each argument is a
//	                        recorder file or a run ID
//	runs gc                 prune envelopes whose artifacts are all gone
//
// <id> may be any unambiguous run-ID prefix. The ledger file is resolved
// like the main command's -ledger-dir flag: explicit flag, then
// HETARCH_LEDGER_DIR, then ~/.hetarch.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"strings"

	"hetarch/internal/obs/diff"
	"hetarch/internal/obs/ledger"
	"hetarch/internal/obs/runlog"
)

func runsUsage(w io.Writer) {
	fmt.Fprintln(w, `usage: hetarch runs <list|show|diff|gc> [-ledger-dir DIR] [args]
  list               table of recorded runs
  show <id>          envelope + artifact manifest with digest verification
  diff <old> <new>   compare two recorder files or runs (obs/diff gates)
  gc [-dry-run]      prune runs whose artifacts are all gone`)
}

// runsMain dispatches `hetarch runs ...`. Exit codes follow the main
// command: 0 ok, 1 runtime error / failed digest verification, 2 usage
// error. diff has its own: 0 clean, 1 regression, 2 no report.
func runsMain(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		fmt.Fprintln(stderr, "hetarch runs: missing subcommand")
		runsUsage(stderr)
		return exitUsage
	}
	sub := args[0]
	fs := flag.NewFlagSet("hetarch runs "+sub, flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Usage = func() { runsUsage(stderr) }
	ledgerDir := fs.String("ledger-dir", "", "run-ledger directory (default $HETARCH_LEDGER_DIR, then ~/.hetarch)")
	dryRun := fs.Bool("dry-run", false, "gc: report what would be pruned without rewriting the ledger")
	tol := fs.Float64("tol", 0.2, "diff: allowed relative throughput drop before it counts as a regression (0 flags any drop)")
	if err := fs.Parse(args[1:]); err != nil {
		return exitUsage
	}
	rest := fs.Args()

	// diff reads the ledger only for an argument that is not a file, so two
	// recordings diff with the ledger off.
	if sub == "diff" {
		if len(rest) != 2 {
			fmt.Fprintln(stderr, "hetarch runs diff: want exactly two recorder files or run IDs (old new)")
			runsUsage(stderr)
			return exitUsage
		}
		if *tol < 0 || math.IsNaN(*tol) {
			fmt.Fprintf(stderr, "hetarch runs diff: -tol must be >= 0, got %v\n", *tol)
			runsUsage(stderr)
			return exitUsage
		}
		return runsDiff(stdout, stderr, *ledgerDir, rest[0], rest[1], *tol)
	}
	// list and gc take no arguments. flag stops at the first non-flag word,
	// so a stray one would silently drop the flags after it (gc would prune
	// for real despite a later -dry-run).
	if (sub == "list" || sub == "gc") && len(rest) > 0 {
		fmt.Fprintf(stderr, "hetarch runs %s: unexpected argument %q\n", sub, rest[0])
		runsUsage(stderr)
		return exitUsage
	}
	path, err := ledgerFile(*ledgerDir)
	if err != nil {
		fmt.Fprintln(stderr, "hetarch runs:", err)
		return exitUsage
	}

	switch sub {
	case "list":
		lg, err := ledger.ReadFile(path)
		if err != nil {
			if isNotExist(err) {
				fmt.Fprintf(stdout, "no runs recorded (ledger: %s)\n", path)
				return exitOK
			}
			fmt.Fprintln(stderr, "hetarch runs:", err)
			return exitError
		}
		printRunList(stdout, lg)
		return exitOK

	case "show":
		if len(rest) != 1 {
			fmt.Fprintln(stderr, "hetarch runs show: want exactly one run ID (or unambiguous prefix)")
			runsUsage(stderr)
			return exitUsage
		}
		lg, err := readLedger(path, stderr)
		if err != nil {
			fmt.Fprintln(stderr, "hetarch runs:", err)
			return exitError
		}
		e, err := lg.Find(rest[0])
		if err != nil {
			fmt.Fprintln(stderr, "hetarch runs show:", err)
			return exitError
		}
		return printRunShow(stdout, e)

	case "gc":
		kept, pruned, err := ledger.GC(path, *dryRun)
		if err != nil {
			if isNotExist(err) {
				fmt.Fprintf(stdout, "no runs recorded (ledger: %s)\n", path)
				return exitOK
			}
			fmt.Fprintln(stderr, "hetarch runs gc:", err)
			return exitError
		}
		verb := "pruned"
		if *dryRun {
			verb = "would prune"
		}
		for _, e := range pruned {
			fmt.Fprintf(stdout, "%s %s  (%s %s, artifacts gone)\n", verb, e.RunID, e.Experiment, e.Scale)
		}
		fmt.Fprintf(stdout, "gc: %d kept, %d %s\n", len(kept), len(pruned), verb)
		return exitOK

	default:
		fmt.Fprintf(stderr, "hetarch runs: unknown subcommand %q\n", sub)
		runsUsage(stderr)
		return exitUsage
	}
}

func isNotExist(err error) bool { return errors.Is(err, fs.ErrNotExist) }

// ledgerFile is the ledger file under dir, or under the default directory
// when dir is empty.
func ledgerFile(dir string) (string, error) {
	if dir == "" {
		var ok bool
		if dir, ok = ledger.DefaultDir(); !ok {
			return "", errors.New("run ledger is disabled (HETARCH_LEDGER_DIR=off); pass -ledger-dir")
		}
	}
	return filepath.Join(dir, ledger.FileName), nil
}

// readLedger reads the ledger at path and notes a torn tail on stderr.
func readLedger(path string, stderr io.Writer) (*ledger.Log, error) {
	lg, err := ledger.ReadFile(path)
	if isNotExist(err) {
		return nil, fmt.Errorf("no ledger at %s (no runs recorded yet)", path)
	}
	if err != nil {
		return nil, err
	}
	if lg.Truncated {
		fmt.Fprintln(stderr, "hetarch runs: note: ledger ends in a torn record (a run was killed mid-append); it was skipped")
	}
	return lg, nil
}

// printRunList renders the chronological run table.
func printRunList(w io.Writer, lg *ledger.Log) {
	fmt.Fprintf(w, "%-26s  %-20s  %-10s  %-6s  %-12s  %10s  %10s  %s\n",
		"RUN ID", "STARTED", "EXPERIMENT", "SCALE", "STATUS", "SHOTS", "ERR RATE", "ARTIFACTS")
	for _, e := range lg.Envelopes {
		started := e.StartedAt
		if t, err := runlog.IDTime(e.RunID); err == nil {
			started = t.Format("2006-01-02 15:04:05Z")
		}
		shots, rate := "-", "-"
		if e.Metrics != nil && e.Metrics.Shots > 0 {
			shots = fmt.Sprintf("%d", e.Metrics.Shots)
			rate = fmt.Sprintf("%.3g", e.Metrics.ErrorRate)
		}
		fmt.Fprintf(w, "%-26s  %-20s  %-10s  %-6s  %-12s  %10s  %10s  %d\n",
			e.RunID, started, e.Experiment, e.Scale, e.Status, shots, rate, len(e.Artifacts))
	}
	if lg.Skipped > 0 {
		fmt.Fprintf(w, "(%d unparseable interior records skipped)\n", lg.Skipped)
	}
}

// printRunShow renders one envelope and re-verifies every artifact digest.
// Any missing or mismatching artifact makes the exit code non-zero.
func printRunShow(w io.Writer, e *ledger.Envelope) int {
	fmt.Fprintf(w, "run      %s\n", e.RunID)
	fmt.Fprintf(w, "command  %s %s\n", e.Tool, strings.Join(e.Args, " "))
	if e.Experiment != "" {
		fmt.Fprintf(w, "what     %s (%s scale), seed %d, %d workers\n", e.Experiment, e.Scale, e.Seed, e.Workers)
	} else {
		fmt.Fprintf(w, "what     seed %d, %d workers\n", e.Seed, e.Workers)
	}
	if e.GitRevision != "" {
		dirty := ""
		if e.GitDirty {
			dirty = " (dirty)"
		}
		fmt.Fprintf(w, "build    %s @ %.12s%s\n", e.GoVersion, e.GitRevision, dirty)
	}
	fmt.Fprintf(w, "when     %s .. %s (%.2fs)\n", e.StartedAt, e.EndedAt, e.WallSeconds)
	fmt.Fprintf(w, "status   %s", e.Status)
	if e.Error != "" {
		fmt.Fprintf(w, " (%s)", e.Error)
	}
	fmt.Fprintln(w)
	if e.ResumedFrom != "" {
		fmt.Fprintf(w, "resumed  from run %s\n", e.ResumedFrom)
	}
	if m := e.Metrics; m != nil && m.Shots > 0 {
		fmt.Fprintf(w, "metrics  %d shots, %d logical errors (rate %.4g, 95%% CI [%.4g, %.4g]), %.0f shots/sec\n",
			m.Shots, m.LogicalErrors, m.ErrorRate, m.ErrorRateLo, m.ErrorRateHi, m.ShotsPerSec)
	}

	if len(e.Artifacts) == 0 {
		fmt.Fprintln(w, "artifacts: none")
		return exitOK
	}
	fmt.Fprintln(w, "artifacts:")
	results, bad := e.Verify()
	for _, r := range results {
		fmt.Fprintf(w, "  [%-10s] %-9s %s\n", r.Status, r.Artifact.Kind, r.Artifact.Path)
	}
	if bad > 0 {
		fmt.Fprintf(w, "verification FAILED: %d of %d artifacts missing or modified since the run\n", bad, len(results))
		return exitError
	}
	fmt.Fprintf(w, "verification ok: %d artifacts match their recorded digests\n", len(results))
	return exitOK
}

// runsDiff compares two recorder artifacts through the obs/diff gates. An
// argument names a recorder file when a regular file exists at that path;
// otherwise it is a run ID, resolved to the run's recorder artifact through
// the ledger, which is read only then. It exits 0 when nothing regressed, 1
// on a regression and 2 when no report can be produced (an unreadable or
// incomparable artifact, an unknown run, a run without a recorder).
func runsDiff(stdout, stderr io.Writer, ledgerDir, oldArg, newArg string, tol float64) int {
	var lg *ledger.Log
	source := func(arg string) (*diff.Source, error) {
		if st, err := os.Stat(arg); err == nil && st.Mode().IsRegular() {
			return diff.Load(arg)
		}
		if lg == nil {
			path, err := ledgerFile(ledgerDir)
			if err != nil {
				return nil, fmt.Errorf("%s is not a file, and the %w", arg, err)
			}
			if lg, err = readLedger(path, stderr); err != nil {
				return nil, err
			}
		}
		e, err := lg.Find(arg)
		if err != nil {
			return nil, err
		}
		for _, a := range e.Artifacts {
			if a.Kind == "recorder" {
				return diff.Load(a.Path)
			}
		}
		return nil, fmt.Errorf("run %s has no recorder artifact (re-run with -record to make it diffable)", e.RunID)
	}
	oldSrc, err := source(oldArg)
	if err != nil {
		fmt.Fprintln(stderr, "hetarch runs diff:", err)
		return exitUsage
	}
	newSrc, err := source(newArg)
	if err != nil {
		fmt.Fprintln(stderr, "hetarch runs diff:", err)
		return exitUsage
	}
	report, err := diff.Compare(oldSrc, newSrc, tol)
	if err != nil {
		fmt.Fprintln(stderr, "hetarch runs diff:", err)
		return exitUsage
	}
	report.Print(stdout)
	return report.ExitCode()
}
