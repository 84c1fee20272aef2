package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("x")
	c.Inc()
	c.Add(41)
	if c.Value() != 42 {
		t.Fatalf("value %d, want 42", c.Value())
	}
	if r.Counter("x") != c {
		t.Fatal("lookup must return the same counter instance")
	}
}

func TestCounterConcurrent(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("x")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Fatalf("value %d, want 8000", c.Value())
	}
}

func TestGaugeOps(t *testing.T) {
	var g Gauge
	g.Set(1.5)
	g.Add(2.5)
	if g.Value() != 4 {
		t.Fatalf("value %v, want 4", g.Value())
	}
	g.SetMax(3) // below current: no-op
	if g.Value() != 4 {
		t.Fatalf("SetMax lowered the gauge to %v", g.Value())
	}
	g.SetMax(10)
	if g.Value() != 10 {
		t.Fatalf("SetMax failed: %v", g.Value())
	}
}

func TestHistogramSummary(t *testing.T) {
	var h Histogram
	for v := int64(1); v <= 100; v++ {
		h.Observe(v)
	}
	s := h.snapshot()
	if s.Count != 100 || s.Sum != 5050 || s.Min != 1 || s.Max != 100 {
		t.Fatalf("summary %+v", s)
	}
	if s.Mean != 50.5 {
		t.Fatalf("mean %v", s.Mean)
	}
	// Exponential buckets: p50 must land within a factor of two of the true
	// median (50) and quantiles must be monotone.
	if s.P50 < 25 || s.P50 > 100 {
		t.Fatalf("p50 %d out of range", s.P50)
	}
	if s.P90 < s.P50 || s.P99 < s.P90 {
		t.Fatalf("quantiles not monotone: %+v", s)
	}
}

func TestHistogramZeroAndNegative(t *testing.T) {
	var h Histogram
	h.Observe(0)
	h.Observe(-5)
	s := h.snapshot()
	if s.Count != 2 || s.Min != -5 || s.Max != 0 {
		t.Fatalf("summary %+v", s)
	}
}

func TestResetKeepsPointersValid(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	g := r.Gauge("g")
	h := r.Histogram("h")
	c.Add(7)
	g.Set(7)
	h.Observe(7)
	r.Reset()
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 {
		t.Fatal("reset did not zero metrics")
	}
	c.Inc()
	if r.Counter("c") != c || c.Value() != 1 {
		t.Fatal("cached pointer detached from registry after reset")
	}
}

func TestSnapshotDeterministicTable(t *testing.T) {
	r := NewRegistry()
	r.Counter("b.shots").Add(5)
	r.Counter("a.calls").Add(2)
	r.Gauge("depth").Set(3)
	r.Histogram("lat_ns").Observe(1500)
	var one, two bytes.Buffer
	r.Snapshot().WriteTable(&one)
	r.Snapshot().WriteTable(&two)
	if one.String() != two.String() {
		t.Fatal("snapshot table not deterministic")
	}
	out := one.String()
	if !strings.Contains(out, "a.calls") || !strings.Contains(out, "b.shots") {
		t.Fatalf("missing counters in table:\n%s", out)
	}
	if strings.Index(out, "a.calls") > strings.Index(out, "b.shots") {
		t.Fatal("counters not sorted")
	}
	// _ns metrics render as durations.
	if !strings.Contains(out, "µs") && !strings.Contains(out, "ms") {
		t.Fatalf("nanosecond histogram not humanized:\n%s", out)
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("x.shots").Add(64)
	b, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.Counter("x.shots") != 64 {
		t.Fatalf("round trip lost data: %s", b)
	}
}

func TestHeartbeatReportsAndStops(t *testing.T) {
	var mu sync.Mutex
	var buf bytes.Buffer
	w := writerFunc(func(p []byte) (int, error) {
		mu.Lock()
		defer mu.Unlock()
		return buf.Write(p)
	})
	var n int64
	hb := StartHeartbeat(w, 10*time.Millisecond, 1000, func() int64 { n += 100; return n })
	time.Sleep(35 * time.Millisecond)
	hb.Stop()
	mu.Lock()
	out := buf.String()
	mu.Unlock()
	if !strings.Contains(out, "progress:") || !strings.Contains(out, "shots") {
		t.Fatalf("heartbeat output %q", out)
	}
	// Stop is deferred AND called explicitly by the CLI: a second call must
	// neither panic nor print another final line.
	hb.Stop()
	mu.Lock()
	again := buf.String()
	mu.Unlock()
	if again != out {
		t.Fatalf("second Stop wrote %q", strings.TrimPrefix(again, out))
	}
}

type writerFunc func(p []byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

func TestSnapshotUnderConcurrentWriters(t *testing.T) {
	// Exercised with -race in CI: snapshots taken while writers hammer the
	// registry must be safe, and once the writers join, two successive
	// snapshots must agree on every value and render identically.
	r := NewRegistry()
	const workers, perWorker = 8, 2000
	var wg sync.WaitGroup
	stopSnaps := make(chan struct{})
	var snapsDone sync.WaitGroup
	snapsDone.Add(1)
	go func() {
		defer snapsDone.Done()
		for {
			select {
			case <-stopSnaps:
				return
			default:
				var buf bytes.Buffer
				r.Snapshot().WriteTable(&buf)
			}
		}
	}()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := r.Counter("conc.shots")
			g := r.Gauge("conc.depth")
			h := r.Histogram("conc.lat_ns")
			for i := 0; i < perWorker; i++ {
				c.Inc()
				g.SetMax(float64(i))
				h.Observe(int64(i))
			}
		}(w)
	}
	wg.Wait()
	close(stopSnaps)
	snapsDone.Wait()

	one, two := r.Snapshot(), r.Snapshot()
	if one.Counter("conc.shots") != workers*perWorker {
		t.Fatalf("counter %d, want %d", one.Counter("conc.shots"), workers*perWorker)
	}
	var b1, b2 bytes.Buffer
	one.WriteTable(&b1)
	two.WriteTable(&b2)
	if b1.String() != b2.String() {
		t.Fatal("quiesced snapshots render differently")
	}
	h := one.Histograms["conc.lat_ns"]
	var sum int64
	for _, c := range h.Buckets {
		sum += c
	}
	if sum != h.Count || h.Count != workers*perWorker {
		t.Fatalf("bucket sum %d != count %d", sum, h.Count)
	}
}
