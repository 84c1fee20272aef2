// Command obsdiff compares two flight-recorder JSONL files written by
// `hetarch -record` and flags regressions: throughput drops beyond a
// relative tolerance, and logical-error-rate increases whose Wilson
// confidence intervals no longer overlap. `hetarch runs diff` runs the same
// comparison on runs named by their ledger IDs; obsdiff takes file paths.
//
// Usage:
//
//	obsdiff [-tol 0.2] [-confidence 0.95] [-report-only] OLD NEW
//
// Exit codes (the CI contract):
//
//	0  compared cleanly, no regression (always, under -report-only)
//	1  at least one regression
//	2  usage error, unreadable artifact, or incomparable artifacts
//	   (different scales, or no shared metric)
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"hetarch/internal/obs/diff"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("obsdiff", flag.ContinueOnError)
	fs.SetOutput(stderr)
	tol := fs.Float64("tol", 0.2, "allowed relative throughput drop before flagging")
	confidence := fs.Float64("confidence", 0.95, "Wilson CI level for error-rate comparison")
	reportOnly := fs.Bool("report-only", false, "print the report but exit 0 even on regression")
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: obsdiff [flags] OLD NEW")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fs.Usage()
		return 2
	}

	old, err := diff.Load(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(stderr, "obsdiff:", err)
		return 2
	}
	new, err := diff.Load(fs.Arg(1))
	if err != nil {
		fmt.Fprintln(stderr, "obsdiff:", err)
		return 2
	}

	rep, err := diff.Compare(old, new, diff.Options{Tolerance: *tol, Confidence: *confidence})
	if err != nil {
		fmt.Fprintln(stderr, "obsdiff:", err)
		return 2
	}
	rep.Print(stdout)
	if *reportOnly {
		return 0
	}
	return rep.ExitCode()
}
