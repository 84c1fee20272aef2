package obs_test

import (
	"regexp"
	"strings"
	"testing"

	"hetarch/internal/obs"
	"hetarch/internal/obs/runlog"
	"hetarch/internal/obs/runtimemetrics"

	// Register every package-level metric in the production codebase onto
	// obs.Default: experiments transitively imports every instrumented
	// subsystem (mc, dse, surface, uec, decoder, sched, stabsim, core).
	_ "hetarch/internal/experiments"

	// Register the ledger.* metrics and ledger/recorder event names, which
	// experiments does not reach (only the CLI wires the run ledger in).
	_ "hetarch/internal/obs/ledger"
	_ "hetarch/internal/obs/recorder"
)

// metricName is the registry's naming convention: a lowercase package
// prefix, then one or more dot-separated snake_case segments
// ("mc.shard_wall_ns", "core.characterize.calls", "runtime.gc_pause_p99_ns").
var metricName = regexp.MustCompile(`^[a-z][a-z0-9]*(\.[a-z][a-z0-9]*(_[a-z0-9]+)*)+$`)

// TestMetricNameHygiene sweeps every metric registered on the default
// registry — the set a -metrics snapshot or a recorder's final record
// exposes — and enforces the pkg.snake_case convention and no duplicate
// registration across metric kinds.
func TestMetricNameHygiene(t *testing.T) {
	runtimemetrics.Sample(obs.Default) // runtime.* gauges register on first sample
	snap := obs.Default.Snapshot()

	kinds := map[string][]string{}
	record := func(kind string, names map[string]struct{}) {
		for name := range names {
			kinds[name] = append(kinds[name], kind)
		}
	}
	counters, gauges, hists := map[string]struct{}{}, map[string]struct{}{}, map[string]struct{}{}
	for name := range snap.Counters {
		counters[name] = struct{}{}
	}
	for name := range snap.Gauges {
		gauges[name] = struct{}{}
	}
	for name := range snap.Histograms {
		hists[name] = struct{}{}
	}
	record("counter", counters)
	record("gauge", gauges)
	record("histogram", hists)

	if len(kinds) < 15 {
		t.Fatalf("only %d metrics registered — the experiments import no longer pulls in the instrumented packages", len(kinds))
	}

	// Metrics the decoder hot path is expected to keep publishing: the
	// zero-alloc rewrite moved defect accounting out of Decode's inner loop,
	// and these names are the contract that the telemetry survived the move.
	for name, kind := range map[string]string{
		"decoder.unionfind.decodes":          "counter",
		"decoder.unionfind.defects_per_shot": "histogram",
	} {
		if _, ok := kinds[name]; !ok {
			t.Errorf("expected %s %q is not registered", kind, name)
		}
	}

	for name, kk := range kinds {
		if !metricName.MatchString(name) {
			t.Errorf("metric %q violates the pkg.snake_case convention", name)
		}
		if len(kk) > 1 {
			t.Errorf("metric %q registered as multiple kinds: %v", name, kk)
		}
	}
}

// TestEventNameHygiene sweeps every structured-log event name declared via
// runlog.Event — the run ledger's vocabulary plus the library events in
// recorder, checkpoint, mc, dse, and ledger — and enforces the same
// pkg.snake_case convention as metrics, plus that no event name shadows a
// registered metric name: a grep for "mc.shard_faults" must land on either
// the counter or the event, never an ambiguous both.
func TestEventNameHygiene(t *testing.T) {
	runtimemetrics.Sample(obs.Default)
	snap := obs.Default.Snapshot()
	metricOf := map[string]string{}
	for name := range snap.Counters {
		metricOf[name] = "counter"
	}
	for name := range snap.Gauges {
		metricOf[name] = "gauge"
	}
	for name := range snap.Histograms {
		metricOf[name] = "histogram"
	}

	events := runlog.EventNames()
	if len(events) < 10 {
		t.Fatalf("only %d event names declared — the blank imports no longer pull in the instrumented packages: %v", len(events), events)
	}
	prefixes := map[string]bool{}
	for _, name := range events {
		if !metricName.MatchString(name) {
			t.Errorf("event %q violates the pkg.snake_case convention", name)
		}
		if kind, dup := metricOf[name]; dup {
			t.Errorf("event %q collides with the registered %s of the same name", name, kind)
		}
		prefixes[name[:strings.IndexByte(name, '.')]] = true
	}
	// The run.* prefix is reserved for the CLI's invocation lifecycle and
	// must be present (runlog declares it at init).
	if !prefixes["run"] {
		t.Errorf("run.* lifecycle events missing from the registry: %v", events)
	}
	for _, want := range []string{"ledger", "recorder"} {
		if !prefixes[want] {
			t.Errorf("%s.* events missing — is the blank import gone?", want)
		}
	}
}
