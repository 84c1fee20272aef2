package trace

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync"
	"testing"
)

func TestDisabledCollectorIsInert(t *testing.T) {
	c := NewCollector()
	if c.Enabled() {
		t.Fatal("zero collector reports enabled")
	}
	if c.Sampled(0) {
		t.Fatal("disabled collector sampled an index")
	}
	c.Emit(Event{Name: "x"})
	if c.Len() != 0 || c.Dropped() != 0 {
		t.Fatalf("disabled collector recorded: len=%d dropped=%d", c.Len(), c.Dropped())
	}
	if got := c.Events(); got != nil {
		t.Fatalf("disabled collector returned events: %v", got)
	}
}

// TestDeterministicSampling: which indices are traced is a pure function
// of (index, sampleN) — never of timing or worker count.
func TestDeterministicSampling(t *testing.T) {
	c := NewCollector()
	c.Enable(16, 4)
	var kept []int
	for i := 0; i < 16; i++ {
		if c.Sampled(i) {
			kept = append(kept, i)
		}
	}
	want := []int{0, 4, 8, 12}
	if fmt.Sprint(kept) != fmt.Sprint(want) {
		t.Fatalf("sampled %v, want %v", kept, want)
	}

	c.Enable(16, 1)
	for i := 0; i < 8; i++ {
		if !c.Sampled(i) {
			t.Fatalf("sampleN=1 must keep every index, dropped %d", i)
		}
	}
}

func TestCapacityDropsAreCounted(t *testing.T) {
	c := NewCollector()
	c.Enable(4, 1)
	for i := 0; i < 10; i++ {
		c.Emit(Event{Name: "e", Phase: PhaseInstant, Index: int64(i)})
	}
	if c.Len() != 4 {
		t.Fatalf("len = %d, want 4", c.Len())
	}
	if c.Dropped() != 6 {
		t.Fatalf("dropped = %d, want 6", c.Dropped())
	}
	// Re-enabling resets the buffer and the drop count.
	c.Enable(4, 1)
	if c.Len() != 0 || c.Dropped() != 0 {
		t.Fatalf("re-enable did not reset: len=%d dropped=%d", c.Len(), c.Dropped())
	}
}

// TestConcurrentEmitSnapshot hammers Emit from many goroutines while a
// reader snapshots mid-flight: every returned event must be fully
// written (the per-slot ready flag contract), and the final count must
// balance len + dropped. Run under -race in CI.
func TestConcurrentEmitSnapshot(t *testing.T) {
	c := NewCollector()
	c.Enable(1024, 1)
	const writers, per = 8, 400
	var wg sync.WaitGroup
	stop := make(chan struct{})
	go func() { // concurrent reader
		for {
			select {
			case <-stop:
				return
			default:
				for _, e := range c.Events() {
					if e.Name == "" {
						t.Error("snapshot observed a half-written event")
						return
					}
				}
			}
		}
	}()
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Emit(Event{Name: "e", Proc: "mc", Lane: w, Phase: PhaseInstant, TS: c.Now(), Index: int64(i)})
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	if got := int64(c.Len()) + c.Dropped(); got != writers*per {
		t.Fatalf("len+dropped = %d, want %d", got, writers*per)
	}
	if c.Len() != 1024 {
		t.Fatalf("len = %d, want full buffer 1024", c.Len())
	}
}

// TestChromeTraceSchema validates the exported JSON against the Chrome
// Trace Event Format contract: a traceEvents array whose records carry
// name/ph/pid/tid/ts, metadata records naming processes and worker
// lanes, dur on complete events, and args.index on indexed events.
func TestChromeTraceSchema(t *testing.T) {
	c := NewCollector()
	c.Enable(64, 1)
	c.Emit(Event{Name: "shard 0", Cat: "mc.shard", Proc: "mc", Lane: 2, Phase: PhaseComplete,
		TS: 1500, Dur: 2500, Index: 0, Attrs: map[string]int64{"queue_wait_ns": 100}})
	c.Emit(Event{Name: "point 3", Cat: "dse.point", Proc: "dse", Lane: 1, Phase: PhaseComplete,
		TS: 4000, Dur: 1000, Index: 3})
	c.Emit(Event{Name: "cache.hit", Cat: "dse.cache", Proc: "dse", Phase: PhaseInstant, TS: 4200, Index: -1})

	var buf bytes.Buffer
	if err := c.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents     []map[string]any `json:"traceEvents"`
		DisplayTimeUnit string           `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}

	byPh := map[string][]map[string]any{}
	for i, e := range doc.TraceEvents {
		for _, key := range []string{"name", "ph", "pid"} {
			if _, ok := e[key]; !ok {
				t.Fatalf("event %d missing %q: %v", i, key, e)
			}
		}
		ph := e["ph"].(string)
		if ph != "M" {
			if _, ok := e["ts"]; !ok {
				t.Fatalf("event %d missing ts: %v", i, e)
			}
			if _, ok := e["tid"]; !ok {
				t.Fatalf("event %d missing tid: %v", i, e)
			}
		}
		byPh[ph] = append(byPh[ph], e)
	}
	// Metadata: two processes ("dse" < "mc"), three named lanes.
	var procNames []string
	for _, m := range byPh["M"] {
		if m["name"] == "process_name" {
			procNames = append(procNames, m["args"].(map[string]any)["name"].(string))
		}
	}
	if fmt.Sprint(procNames) != "[dse mc]" {
		t.Fatalf("process_name metadata = %v, want [dse mc]", procNames)
	}
	// Complete events carry dur; the mc shard event keeps its attrs and
	// worker lane.
	if len(byPh["X"]) != 2 {
		t.Fatalf("complete events = %d, want 2", len(byPh["X"]))
	}
	shard := byPh["X"][0]
	if shard["dur"].(float64) != 2.5 || shard["ts"].(float64) != 1.5 {
		t.Fatalf("shard ts/dur not in microseconds: %v", shard)
	}
	if shard["tid"].(float64) != 2 {
		t.Fatalf("shard lane lost: %v", shard)
	}
	args := shard["args"].(map[string]any)
	if args["index"].(float64) != 0 || args["queue_wait_ns"].(float64) != 100 {
		t.Fatalf("shard args wrong: %v", args)
	}
	// Instant events are thread-scoped and index-less.
	if len(byPh["i"]) != 1 {
		t.Fatalf("instant events = %d, want 1", len(byPh["i"]))
	}
	inst := byPh["i"][0]
	if inst["s"] != "t" {
		t.Fatalf("instant scope = %v, want t", inst["s"])
	}
	if _, ok := inst["args"]; ok {
		t.Fatalf("index -1 must suppress args.index: %v", inst)
	}
}

// TestChromeTraceDeterministicRender: equal event sets must render
// byte-identically (sorted pid assignment, stable metadata order).
func TestChromeTraceDeterministicRender(t *testing.T) {
	render := func() string {
		c := NewCollector()
		c.Enable(16, 1)
		c.Emit(Event{Name: "a", Proc: "mc", Lane: 1, Phase: PhaseInstant, TS: 10, Index: -1})
		c.Emit(Event{Name: "b", Proc: "dse", Lane: 0, Phase: PhaseComplete, TS: 20, Dur: 5, Index: 7})
		var buf bytes.Buffer
		if err := c.WriteChromeTrace(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	if render() != render() {
		t.Fatal("equal event sets rendered differently")
	}
}

// TestSpanDisabledIsInert: with the default collector disabled, opening
// and ending a span records nothing and allocates nothing, so per-row
// hooks cost one atomic load in untraced runs.
func TestSpanDisabledIsInert(t *testing.T) {
	Default.Disable()
	allocs := testing.AllocsPerRun(100, func() {
		Span("run", "run.row", "Steane")()
	})
	if allocs != 0 {
		t.Fatalf("disabled Span allocated %.0f times per call", allocs)
	}
	if Default.Len() != 0 {
		t.Fatalf("disabled Span recorded %d events", Default.Len())
	}
}

// TestSpanNesting: spans are unsampled complete events, and a span ended
// inside another lies within the outer span's interval.
func TestSpanNesting(t *testing.T) {
	Default.Enable(16, 1<<20) // a stride no shard index would hit
	defer Default.Disable()
	endExp := Span("run", "run.experiment", "fig9")
	for _, row := range []string{"Steane", "Surface-d3"} {
		Span("run", "run.row", row)()
	}
	endExp()

	ev := Default.Events()
	if len(ev) != 3 {
		t.Fatalf("recorded %d events, want 3: %+v", len(ev), ev)
	}
	exp := ev[2]
	if exp.Name != "fig9" || exp.Cat != "run.experiment" || exp.Proc != "run" || exp.Phase != PhaseComplete || exp.Index != -1 {
		t.Fatalf("experiment span %+v", exp)
	}
	for _, row := range ev[:2] {
		if row.Cat != "run.row" || row.Phase != PhaseComplete {
			t.Fatalf("row span %+v", row)
		}
		if row.TS < exp.TS || row.TS+row.Dur > exp.TS+exp.Dur {
			t.Fatalf("row span %q [%d,%d] outside experiment span [%d,%d]",
				row.Name, row.TS, row.TS+row.Dur, exp.TS, exp.TS+exp.Dur)
		}
	}
}
