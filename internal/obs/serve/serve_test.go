package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hetarch/internal/mc"
	"hetarch/internal/obs"
	"hetarch/internal/obs/ledger"
	"hetarch/internal/obs/trace"
)

func testOptions() (Options, *obs.Registry) {
	reg := obs.NewRegistry()
	reg.Counter("surface.shots").Add(640)
	reg.Histogram("sched.event_lat_ns").Observe(1500)
	return Options{Registry: reg}, reg
}

func TestMetricsEndpoint(t *testing.T) {
	opts, _ := testOptions()
	ts := httptest.NewServer(Handler(opts))
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	body, _ := io.ReadAll(resp.Body)
	out := string(body)
	for _, want := range []string{
		"# TYPE surface_shots counter",
		"surface_shots 640",
		"# TYPE sched_event_lat_ns histogram",
		`sched_event_lat_ns_bucket{le="+Inf"} 1`,
		"sched_event_lat_ns_count 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in /metrics:\n%s", want, out)
		}
	}
}

// TestSpansEndpoint: the span tree is gone (experiment and row timings are
// flight-profiler events on /trace), so /spans is an unknown path even
// with every telemetry source configured, and the index no longer lists it.
func TestSpansEndpoint(t *testing.T) {
	opts, _ := testOptions()
	opts.Trace = trace.NewCollector()
	opts.Trace.Enable(16, 1)
	ts := httptest.NewServer(Handler(opts))
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/spans")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /spans = %d, want 404", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	index, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if strings.Contains(string(index), "/spans") {
		t.Fatalf("index still lists /spans:\n%s", index)
	}
}

func TestProgressJSONAndSSE(t *testing.T) {
	opts, reg := testOptions()
	shots := reg.Counter("surface.shots")
	hb := obs.StartHeartbeat(io.Discard, 5*time.Millisecond, 10000, shots.Value)
	defer hb.Stop()
	opts.Heartbeat = hb

	ts := httptest.NewServer(Handler(opts))
	defer ts.Close()

	// Plain JSON.
	resp, err := http.Get(ts.URL + "/progress")
	if err != nil {
		t.Fatal(err)
	}
	var u obs.ProgressUpdate
	if err := json.NewDecoder(resp.Body).Decode(&u); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if u.Done != 640 || u.Total != 10000 {
		t.Fatalf("progress %+v", u)
	}

	// SSE stream: the first event arrives immediately, further ticks follow.
	resp, err = http.Get(ts.URL + "/progress?sse=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}
	shots.Add(100)
	sc := bufio.NewScanner(resp.Body)
	events := 0
	for sc.Scan() && events < 2 {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var ev obs.ProgressUpdate
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
			t.Fatalf("bad SSE payload %q: %v", line, err)
		}
		if ev.Done < 640 {
			t.Fatalf("SSE update went backwards: %+v", ev)
		}
		events++
	}
	if events < 2 {
		t.Fatalf("saw %d SSE events, want >= 2", events)
	}
}

func TestDisabledEndpointsReturn503(t *testing.T) {
	ts := httptest.NewServer(Handler(Options{}))
	defer ts.Close()
	for _, path := range []string{"/metrics", "/progress"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Errorf("%s: status %d, want 503", path, resp.StatusCode)
		}
	}
	// /trace and /runs are downloads: when their source is absent they must
	// 404 with a JSON error body, so a script piping them to a file fails
	// loudly instead of saving an empty 200.
	for _, path := range []string{"/trace", "/runs"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s: status %d, want 404", path, resp.StatusCode)
		}
		var e struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
			t.Errorf("%s: body %q is not a JSON error", path, body)
		}
	}
}

// TestRunsEndpoint: /runs serves the ledger's envelopes as JSON, and an
// armed-but-empty ledger path yields an empty list, not an error.
func TestRunsEndpoint(t *testing.T) {
	dir := t.TempDir()
	l, err := ledger.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(ledger.Envelope{RunID: "testrun123", Tool: "hetarch", Experiment: "fig9", Status: ledger.StatusOK}); err != nil {
		t.Fatal(err)
	}
	l.Close()

	ts := httptest.NewServer(Handler(Options{LedgerPath: l.Path()}))
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/runs")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/runs: status %d, body %s", resp.StatusCode, body)
	}
	var got struct {
		Runs []ledger.Envelope `json:"runs"`
	}
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatalf("/runs body is not JSON: %v", err)
	}
	if len(got.Runs) != 1 || got.Runs[0].RunID != "testrun123" {
		t.Fatalf("/runs = %+v, want the one appended envelope", got.Runs)
	}

	// Configured path that does not exist yet: empty list, 200.
	ts2 := httptest.NewServer(Handler(Options{LedgerPath: dir + "/nonexistent.jsonl"}))
	defer ts2.Close()
	resp, err = http.Get(ts2.URL + "/runs")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/runs (empty): status %d, body %s", resp.StatusCode, body)
	}
}

func TestIndexAndPprof(t *testing.T) {
	opts, _ := testOptions()
	ts := httptest.NewServer(Handler(opts))
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "/metrics") {
		t.Fatalf("index missing endpoint list:\n%s", body)
	}

	resp, err = http.Get(ts.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("pprof status %d", resp.StatusCode)
	}

	resp, err = http.Get(ts.URL + "/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 404 {
		t.Fatalf("unknown path status %d, want 404", resp.StatusCode)
	}
}

// TestShutdownDisconnectsSSESubscribers: an SSE stream is never "idle", so a
// plain http.Server.Shutdown would wait on it until the deadline. Server
// .Shutdown must cancel the subscriber's request context first, letting the
// drain complete promptly and the client observe a clean end of stream.
func TestShutdownDisconnectsSSESubscribers(t *testing.T) {
	opts, reg := testOptions()
	shots := reg.Counter("surface.shots")
	hb := obs.StartHeartbeat(io.Discard, 5*time.Millisecond, 10000, shots.Value)
	defer hb.Stop()
	opts.Heartbeat = hb

	srv, err := Start("127.0.0.1:0", opts)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + srv.Addr() + "/progress?sse=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	br := bufio.NewReader(resp.Body)
	if line, err := br.ReadString('\n'); err != nil || !strings.HasPrefix(line, "data: ") {
		t.Fatalf("no initial SSE event (line %q, err %v)", line, err)
	}

	done := make(chan struct{})
	go func() {
		io.Copy(io.Discard, br) // runs until the server ends the stream
		close(done)
	}()

	sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	start := time.Now()
	if err := srv.Shutdown(sctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if d := time.Since(start); d > 3*time.Second {
		t.Fatalf("Shutdown took %v: SSE subscriber was not drained, it was waited out", d)
	}
	select {
	case <-done:
	case <-time.After(3 * time.Second):
		t.Fatal("SSE subscriber still connected after Shutdown returned")
	}
}

// TestServeUnderLoad hammers the telemetry surface the way a fleet of
// dashboards would — concurrent /metrics scrapes, SSE /progress
// subscribers, and /trace downloads — while a sharded Monte Carlo run
// executes with the flight profiler armed. Under -race this proves the
// handlers only ever see published state, and the engine's determinism
// check at the end proves serving never perturbed the run.
func TestServeUnderLoad(t *testing.T) {
	var progress atomic.Int64
	runner := func() mc.ShardRunner {
		return func(sh mc.Shard) mc.Tally {
			rng := sh.RNG()
			var tl mc.Tally
			for i := 0; i < sh.Shots; i++ {
				tl.Shots++
				if rng.Float64() < 0.37 {
					tl.Errors++
				}
			}
			progress.Add(int64(sh.Shots))
			return tl
		}
	}
	cfg := mc.Config{Shots: 4_000, Seed: 11, ShardSize: 128, Workers: 4}

	// A small buffer keeps every /trace download cheap even though the run
	// loop below fills it: once full, further events are counted as drops.
	trace.Default.Enable(1<<12, 2)
	defer trace.Default.Disable()
	hb := obs.StartHeartbeat(io.Discard, 5*time.Millisecond, 1_000_000, progress.Load)
	defer hb.Stop()
	srv, err := Start("127.0.0.1:0", Options{
		Registry:  obs.Default, // mc's shard histograms register here
		Heartbeat: hb,
		Trace:     trace.Default,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	// The engine runs continuously until every load client is done, so all
	// scrapes and downloads land mid-run.
	want, err := mc.RunContext(context.Background(), cfg, runner)
	if err != nil {
		t.Fatal(err)
	}
	stopRun := make(chan struct{})
	runDone := make(chan error, 1)
	go func() {
		for {
			select {
			case <-stopRun:
				runDone <- nil
				return
			default:
			}
			got, err := mc.RunContext(context.Background(), cfg, runner)
			if err != nil {
				runDone <- err
				return
			}
			if got != want {
				runDone <- fmt.Errorf("tally under load %+v != baseline %+v", got, want)
				return
			}
		}
	}()

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	fail := func(format string, args ...any) {
		select {
		case errs <- fmt.Errorf(format, args...):
		default:
		}
	}

	for c := 0; c < 4; c++ { // Prometheus scrapers
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				resp, err := http.Get(base + "/metrics")
				if err != nil {
					fail("/metrics: %v", err)
					return
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != 200 {
					fail("/metrics status %d", resp.StatusCode)
					return
				}
				if !strings.Contains(string(body), "mc_shard_wall_ns") {
					fail("/metrics missing mc_shard_wall_ns")
					return
				}
			}
		}()
	}
	for c := 0; c < 3; c++ { // SSE subscribers
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Get(base + "/progress?sse=1")
			if err != nil {
				fail("/progress sse: %v", err)
				return
			}
			defer resp.Body.Close()
			sc := bufio.NewScanner(resp.Body)
			events := 0
			for sc.Scan() && events < 3 {
				line := sc.Text()
				if !strings.HasPrefix(line, "data: ") {
					continue
				}
				var u obs.ProgressUpdate
				if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &u); err != nil {
					fail("bad SSE payload %q: %v", line, err)
					return
				}
				events++
			}
			if events < 3 {
				fail("saw %d SSE events, want >= 3", events)
			}
		}()
	}
	for c := 0; c < 3; c++ { // trace downloaders
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				resp, err := http.Get(base + "/trace")
				if err != nil {
					fail("/trace: %v", err)
					return
				}
				var tr trace.ChromeTrace
				err = json.NewDecoder(resp.Body).Decode(&tr)
				resp.Body.Close()
				if resp.StatusCode != 200 {
					fail("/trace status %d", resp.StatusCode)
					return
				}
				if err != nil {
					fail("/trace mid-run download is not valid JSON: %v", err)
					return
				}
				if tr.DisplayTimeUnit != "ms" {
					fail("/trace displayTimeUnit %q", tr.DisplayTimeUnit)
					return
				}
			}
		}()
	}

	wg.Wait()
	close(stopRun)
	if err := <-runDone; err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}

	// The armed profiler must have captured shard events by now.
	resp, err := http.Get(base + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	var tr trace.ChromeTrace
	if err := json.NewDecoder(resp.Body).Decode(&tr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	shardEvents := 0
	for _, ev := range tr.TraceEvents {
		if cat, _ := ev["cat"].(string); cat == "mc.shard" {
			shardEvents++
		}
	}
	if shardEvents == 0 {
		t.Fatal("no mc.shard events in /trace after a sharded run")
	}
}

func TestStartAndClose(t *testing.T) {
	opts, _ := testOptions()
	srv, err := Start("127.0.0.1:0", opts)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + srv.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := Start("256.256.256.256:0", opts); err == nil {
		t.Fatal("bad address must fail synchronously")
	}
}
