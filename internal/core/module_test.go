package core

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hetarch/internal/cell"
	"hetarch/internal/device"
	"hetarch/internal/obs"
)

func testRegister() *cell.Cell {
	return cell.NewRegister(device.StandardStorage(12500, 10), device.StandardComputeNoReadout(500), 2)
}

func testModule() *Module {
	input := NewModule("InputMemory").AddCell(testRegister()).AddCell(testRegister())
	distil := NewModule("Distil").AddCell(cell.NewParCheck(device.StandardComputeNoReadout(500), device.StandardCompute(500)))
	output := NewModule("OutputMemory").AddCell(testRegister())
	return NewModule("EntanglementDistillation").
		AddSubModule(input).AddSubModule(distil).AddSubModule(output)
}

func TestModuleRollups(t *testing.T) {
	m := testModule()
	if got := len(m.AllCells()); got != 4 {
		t.Fatalf("AllCells = %d", got)
	}
	// 3 registers: each (25+4) mm^2; parcheck: 2*4 mm^2
	want := 3*29.0 + 8.0
	if math.Abs(m.FootprintArea()-want) > 1e-9 {
		t.Fatalf("footprint %g, want %g", m.FootprintArea(), want)
	}
	// registers: drive+charge = 2 each; parcheck: charge + charge+readout = 3
	if m.ControlOverhead() != 3*2+3 {
		t.Fatalf("control overhead %d", m.ControlOverhead())
	}
	// capacity: registers 11 each, parcheck 2
	if m.QubitCapacity() != 3*11+2 {
		t.Fatalf("capacity %d", m.QubitCapacity())
	}
}

func TestModuleWalkOrder(t *testing.T) {
	m := testModule()
	var names []string
	m.Walk(func(mod *Module) { names = append(names, mod.Name) })
	if len(names) != 4 || names[0] != "EntanglementDistillation" || names[1] != "InputMemory" {
		t.Fatalf("walk order %v", names)
	}
}

func TestModuleValidateDesignRules(t *testing.T) {
	m := testModule()
	if v := m.ValidateDesignRules(); len(v) != 0 {
		t.Fatalf("unexpected violations: %v", v)
	}
	// Break one cell.
	m.SubModules[0].Cells[0].External[1] = 9
	if v := m.ValidateDesignRules(); len(v) == 0 {
		t.Fatal("violation not surfaced")
	}
}

func TestModuleTree(t *testing.T) {
	s := testModule().Tree()
	for _, want := range []string{"EntanglementDistillation", "InputMemory", "[cell] Register", "[cell] ParCheck"} {
		if !strings.Contains(s, want) {
			t.Fatalf("tree missing %q:\n%s", want, s)
		}
	}
}

func TestCharacterizerCaches(t *testing.T) {
	ch := NewCharacterizer()
	runs := 0
	fn := func(c *cell.Cell) (*cell.Characterization, error) {
		runs++
		return cell.CharacterizeRegister(c)
	}
	reg := testRegister()
	calls0, hits0 := ch.Stats()
	for i := 0; i < 5; i++ {
		if _, err := ch.Characterize("reg:ts=12500,tc=500", reg, fn); err != nil {
			t.Fatal(err)
		}
	}
	if runs != 1 {
		t.Fatalf("characterization ran %d times, want 1", runs)
	}
	calls, hits := ch.Stats()
	if calls-calls0 != 5 || hits-hits0 != 4 {
		t.Fatalf("stats delta (%d,%d), want (5,4)", calls-calls0, hits-hits0)
	}
	// Different key -> new run.
	if _, err := ch.Characterize("reg:ts=50000,tc=500", reg, fn); err != nil {
		t.Fatal(err)
	}
	if runs != 2 {
		t.Fatal("distinct key should re-run")
	}
}

func TestCharacterizerPropagatesErrors(t *testing.T) {
	ch := NewCharacterizer()
	wantErr := errors.New("boom")
	_, err := ch.Characterize("k", nil, func(*cell.Cell) (*cell.Characterization, error) {
		return nil, wantErr
	})
	if !errors.Is(err, wantErr) {
		t.Fatal("error not propagated")
	}
	// Errors must not be cached.
	ran := false
	_, _ = ch.Characterize("k", nil, func(*cell.Cell) (*cell.Characterization, error) {
		ran = true
		return &cell.Characterization{}, nil
	})
	if !ran {
		t.Fatal("failed result was cached")
	}
}

func TestErrorBudget(t *testing.T) {
	var b ErrorBudget
	b.Add("distill", 0.002, 10)
	b.Add("cat", 0.003, 5)
	b.Add("uec", 0.001, 20)
	if math.Abs(b.TotalErrorRate()-0.006) > 1e-12 {
		t.Fatalf("total rate %v", b.TotalErrorRate())
	}
	if math.Abs(b.TotalDuration()-35) > 1e-12 {
		t.Fatalf("total duration %v", b.TotalDuration())
	}
	if !strings.Contains(b.String(), "TOTAL") {
		t.Fatal("budget string missing total")
	}
}

func TestErrorBudgetCaps(t *testing.T) {
	var b ErrorBudget
	b.Add("a", 0.7, 0)
	b.Add("b", 0.6, 0)
	if b.TotalErrorRate() != 1 {
		t.Fatal("budget should cap at 1")
	}
}

func TestSweepFullFactorial(t *testing.T) {
	params := []Param{
		{Name: "ts", Values: []float64{1, 2, 3}},
		{Name: "rate", Values: []float64{10, 20}},
	}
	var seen []Point
	results := Sweep(params, func(p Point) map[string]float64 {
		seen = append(seen, p)
		return map[string]float64{"err": p["ts"] * p["rate"]}
	})
	if len(results) != 6 || len(seen) != 6 {
		t.Fatalf("sweep size %d", len(results))
	}
	if results[0].Point["ts"] != 1 || results[0].Point["rate"] != 10 {
		t.Fatal("sweep order wrong")
	}
	if results[5].Metrics["err"] != 60 {
		t.Fatal("metrics wrong")
	}
}

func TestParetoFront(t *testing.T) {
	results := []Result{
		{Metrics: map[string]float64{"err": 0.1, "area": 10}},
		{Metrics: map[string]float64{"err": 0.2, "area": 5}},
		{Metrics: map[string]float64{"err": 0.3, "area": 20}}, // dominated
		{Metrics: map[string]float64{"err": 0.05, "area": 50}},
	}
	front := ParetoFront(results, []string{"err", "area"})
	if len(front) != 3 {
		t.Fatalf("front size %d, want 3", len(front))
	}
	// Sorted by first metric.
	if front[0].Metrics["err"] != 0.05 {
		t.Fatal("front not sorted")
	}
	for _, r := range front {
		if r.Metrics["err"] == 0.3 {
			t.Fatal("dominated point in front")
		}
	}
}

func TestCharacterizerConcurrentAccess(t *testing.T) {
	ch := NewCharacterizer()
	reg := testRegister()
	calls0, hits0 := ch.Stats()
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func(g int) {
			for i := 0; i < 20; i++ {
				key := []string{"a", "b", "c"}[i%3]
				_, err := ch.Characterize(key, reg, cell.CharacterizeRegister)
				if err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}(g)
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	calls1, hits1 := ch.Stats()
	calls, hits := calls1-calls0, hits1-hits0
	if calls != 160 {
		t.Fatalf("calls = %d", calls)
	}
	if hits < calls-3*8 { // at most a few misses per distinct key across racing goroutines
		t.Fatalf("hits = %d of %d", hits, calls)
	}
}

func TestCharacterizerHitMissAccounting(t *testing.T) {
	// Stats reads the process-wide registry: accounting from every instance
	// lands in the same counters, while the caches stay per-instance.
	a := NewCharacterizer()
	b := NewCharacterizer()
	runs := 0
	fn := func(*cell.Cell) (*cell.Characterization, error) {
		runs++
		return &cell.Characterization{}, nil
	}

	globalCalls0 := obs.C("core.characterize.calls").Value()
	globalHits0 := obs.C("core.characterize.hits").Value()
	globalMisses0 := obs.C("core.characterize.misses").Value()
	calls0, hits0 := a.Stats()
	if int64(calls0) != globalCalls0 || int64(hits0) != globalHits0 {
		t.Fatalf("Stats (%d,%d) drifted from the registry (%d,%d)",
			calls0, hits0, globalCalls0, globalHits0)
	}

	// a: miss, hit, hit on one key; miss on a second key.
	for i := 0; i < 3; i++ {
		if _, err := a.Characterize("k1", nil, fn); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := a.Characterize("k2", nil, fn); err != nil {
		t.Fatal(err)
	}
	// b: a single miss — caches are per-instance, so b re-runs k1.
	if _, err := b.Characterize("k1", nil, fn); err != nil {
		t.Fatal(err)
	}
	if runs != 3 {
		t.Fatalf("fn ran %d times, want 3 (caches must not be shared)", runs)
	}

	// Both instances report the same process-wide totals.
	aCalls, aHits := a.Stats()
	bCalls, bHits := b.Stats()
	if aCalls != bCalls || aHits != bHits {
		t.Fatalf("instances disagree: a=(%d,%d) b=(%d,%d)", aCalls, aHits, bCalls, bHits)
	}
	if d := aCalls - calls0; d != 5 {
		t.Fatalf("calls delta %d, want 5", d)
	}
	if d := aHits - hits0; d != 2 {
		t.Fatalf("hits delta %d, want 2", d)
	}
	if d := obs.C("core.characterize.calls").Value() - globalCalls0; d != 5 {
		t.Fatalf("global calls delta %d, want 5", d)
	}
	if d := obs.C("core.characterize.hits").Value() - globalHits0; d != 2 {
		t.Fatalf("global hits delta %d, want 2", d)
	}
	if d := obs.C("core.characterize.misses").Value() - globalMisses0; d != 3 {
		t.Fatalf("global misses delta %d, want 3", d)
	}
}

func TestCharacterizerErrorCountsAsMiss(t *testing.T) {
	ch := NewCharacterizer()
	calls0, hits0 := ch.Stats()
	boom := errors.New("boom")
	_, _ = ch.Characterize("k", nil, func(*cell.Cell) (*cell.Characterization, error) {
		return nil, boom
	})
	if calls, hits := ch.Stats(); calls-calls0 != 1 || hits-hits0 != 0 {
		t.Fatalf("stats delta (%d,%d) after error, want (1,0)", calls-calls0, hits-hits0)
	}
}

// TestCharacterizerSingleFlight releases many concurrent requests for one
// key and requires exactly one execution of the characterization function,
// with every caller receiving its result.
func TestCharacterizerSingleFlight(t *testing.T) {
	ch := NewCharacterizer()
	var runs atomic.Int64
	want := &cell.Characterization{Cell: "sf"}
	start := make(chan struct{})
	const callers = 16
	var wg sync.WaitGroup
	results := make([]*cell.Characterization, callers)
	errs := make([]error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			results[i], errs[i] = ch.Characterize("sf", nil, func(*cell.Cell) (*cell.Characterization, error) {
				runs.Add(1)
				time.Sleep(5 * time.Millisecond) // hold the flight open so followers pile up
				return want, nil
			})
		}(i)
	}
	close(start)
	wg.Wait()
	if got := runs.Load(); got != 1 {
		t.Fatalf("characterization ran %d times for one key, want 1", got)
	}
	for i := 0; i < callers; i++ {
		if errs[i] != nil || results[i] != want {
			t.Fatalf("caller %d got (%p, %v), want the shared result", i, results[i], errs[i])
		}
	}
}

// TestCharacterizerSingleFlightError shares the leader's failure with
// followers and leaves nothing cached, so a retry re-runs.
func TestCharacterizerSingleFlightError(t *testing.T) {
	ch := NewCharacterizer()
	boom := fmt.Errorf("simulation diverged")
	var runs atomic.Int64
	release := make(chan struct{})
	leaderIn := make(chan struct{})
	var wg sync.WaitGroup
	var followerErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _ = ch.Characterize("k", nil, func(*cell.Cell) (*cell.Characterization, error) {
			runs.Add(1)
			close(leaderIn)
			<-release
			return nil, boom
		})
	}()
	<-leaderIn
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, followerErr = ch.Characterize("k", nil, func(*cell.Cell) (*cell.Characterization, error) {
			runs.Add(1)
			return nil, boom
		})
	}()
	// Give the follower a moment to join the flight, then fail the leader.
	time.Sleep(2 * time.Millisecond)
	close(release)
	wg.Wait()
	if !errors.Is(followerErr, boom) && followerErr != nil {
		// The follower either joined the flight (shared error) or ran after
		// the flight closed (its own execution, same error).
		t.Fatalf("follower error = %v, want %v", followerErr, boom)
	}
	if followerErr == nil {
		t.Fatal("follower unexpectedly succeeded")
	}
	// The failure must not be cached: a fresh call re-runs.
	prev := runs.Load()
	_, err := ch.Characterize("k", nil, func(*cell.Cell) (*cell.Characterization, error) {
		runs.Add(1)
		return &cell.Characterization{Cell: "ok"}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if runs.Load() != prev+1 {
		t.Fatal("failed characterization was cached")
	}
}
