// Package diff compares two flight-recorder JSONL runs
// (internal/obs/recorder) and flags shifts that exceed what the statistics
// support: throughput drops beyond a relative tolerance, and logical-error-
// rate increases whose Wilson confidence intervals do not overlap.
//
// It is the regression gate behind `hetarch runs diff`: exit 0 when nothing
// regressed, 1 on a regression, 2 when the artifacts are incomparable.
package diff

import (
	"fmt"
	"io"
	"os"
	"sort"

	"hetarch/internal/obs/recorder"
	"hetarch/internal/obs/stats"
)

// Rate is a sampled error proportion: k errors in n shots.
type Rate struct {
	Errors int64
	Shots  int64
}

// Value returns the point estimate.
func (r Rate) Value() float64 {
	if r.Shots == 0 {
		return 0
	}
	return float64(r.Errors) / float64(r.Shots)
}

// Source is an artifact normalized to comparable metrics.
type Source struct {
	Path  string
	Scale string // "quick"/"full" when the artifact declares one

	// Workers is the mc worker count the artifact was recorded at (0 when
	// the artifact predates the sharded engine). Differing worker counts do
	// not make artifacts incomparable — results are worker-independent and
	// throughput is what the comparison is for — but throughput findings
	// are annotated so a speedup/slowdown can be attributed.
	Workers int

	Throughput map[string]float64 // experiment -> shots/sec
	ErrorRates map[string]Rate    // experiment -> sampled error rate
}

// Load reads a recorder artifact from path.
func Load(path string) (*Source, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Parse(f, path)
}

// Parse normalizes a recorder artifact read from r (path is used for
// labels only).
func Parse(r io.Reader, path string) (*Source, error) {
	run, err := recorder.Read(r)
	if err != nil {
		return nil, fmt.Errorf("%s: not a recorder artifact: %w", path, err)
	}
	s := &Source{Path: path, Scale: run.Header.Scale,
		Workers:    run.Header.Workers,
		Throughput: map[string]float64{}, ErrorRates: map[string]Rate{}}
	for _, b := range run.Batches {
		if b.WallSeconds > 0 && b.Shots > 0 {
			s.Throughput[b.Name] = float64(b.Shots) / b.WallSeconds
		}
		if b.Shots > 0 {
			s.ErrorRates[b.Name] = Rate{Errors: b.Errors, Shots: b.Shots}
		}
	}
	return s, nil
}

// confidence is the Wilson CI level of the error-rate comparison.
const confidence = 0.95

// Finding is one compared metric.
type Finding struct {
	Metric     string // "throughput" or "error-rate"
	Name       string // experiment/batch name
	Old, New   float64
	Regression bool
	Detail     string
}

// Report is the comparison result.
type Report struct {
	Findings    []Finding
	Compared    int
	Regressions int
}

// ExitCode maps the report onto the `runs diff` exit-code contract:
// 0 clean, 1 regression.
func (r *Report) ExitCode() int {
	if r.Regressions > 0 {
		return 1
	}
	return 0
}

// Print renders the report as an aligned text listing, regressions
// flagged with "REGRESSION".
func (r *Report) Print(w io.Writer) {
	for _, f := range r.Findings {
		flag := "ok"
		if f.Regression {
			flag = "REGRESSION"
		}
		fmt.Fprintf(w, "%-11s %-10s %-10s old=%-12.6g new=%-12.6g %s\n",
			flag, f.Metric, f.Name, f.Old, f.New, f.Detail)
	}
	fmt.Fprintf(w, "compared %d metrics, %d regression(s)\n", r.Compared, r.Regressions)
}

// Compare diffs new against old. tolerance is the allowed relative
// throughput drop (0.2 = new may be up to 20% slower before it counts as a
// regression; 0 flags any drop). It returns an error — the "incomparable"
// outcome — when the artifacts declare different scales or share no metric
// at all.
func Compare(old, new *Source, tolerance float64) (*Report, error) {
	if old.Scale != "" && new.Scale != "" && old.Scale != new.Scale {
		return nil, fmt.Errorf("incomparable: %s is %s-scale, %s is %s-scale",
			old.Path, old.Scale, new.Path, new.Scale)
	}
	rep := &Report{}

	// Differing worker counts remain comparable (results are worker-count
	// independent, and cross-worker-count throughput comparison is exactly
	// how the parallel speedup is measured) but every throughput finding
	// carries the annotation so shifts can be attributed.
	workersNote := ""
	if old.Workers != new.Workers && (old.Workers != 0 || new.Workers != 0) {
		workersNote = fmt.Sprintf(" [workers: %d -> %d]", old.Workers, new.Workers)
	}

	for _, name := range commonKeys(old.Throughput, new.Throughput) {
		o, n := old.Throughput[name], new.Throughput[name]
		f := Finding{Metric: "throughput", Name: name, Old: o, New: n}
		if n < o*(1-tolerance) {
			f.Regression = true
			f.Detail = fmt.Sprintf("dropped %.1f%% (> %.0f%% tolerance)%s",
				100*(1-n/o), 100*tolerance, workersNote)
		} else {
			f.Detail = fmt.Sprintf("%+.1f%%%s", 100*(n/o-1), workersNote)
		}
		rep.Findings = append(rep.Findings, f)
	}

	for _, name := range commonRateKeys(old.ErrorRates, new.ErrorRates) {
		o, n := old.ErrorRates[name], new.ErrorRates[name]
		oCI := stats.BinomialCI(o.Errors, o.Shots, confidence)
		nCI := stats.BinomialCI(n.Errors, n.Shots, confidence)
		f := Finding{Metric: "error-rate", Name: name, Old: o.Value(), New: n.Value()}
		if nCI.Lo > oCI.Hi {
			f.Regression = true
			f.Detail = fmt.Sprintf("CIs disjoint: old [%.3g, %.3g] vs new [%.3g, %.3g]",
				oCI.Lo, oCI.Hi, nCI.Lo, nCI.Hi)
		} else {
			f.Detail = fmt.Sprintf("within CI: old [%.3g, %.3g] vs new [%.3g, %.3g]",
				oCI.Lo, oCI.Hi, nCI.Lo, nCI.Hi)
		}
		rep.Findings = append(rep.Findings, f)
	}

	rep.Compared = len(rep.Findings)
	if rep.Compared == 0 {
		return nil, fmt.Errorf("incomparable: %s and %s share no metric", old.Path, new.Path)
	}
	for _, f := range rep.Findings {
		if f.Regression {
			rep.Regressions++
		}
	}
	return rep, nil
}

func commonKeys(a, b map[string]float64) []string {
	var out []string
	for k := range a {
		if _, ok := b[k]; ok {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}

func commonRateKeys(a, b map[string]Rate) []string {
	var out []string
	for k := range a {
		if _, ok := b[k]; ok {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}
