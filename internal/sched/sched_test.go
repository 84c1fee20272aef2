package sched

import (
	"testing"

	"hetarch/internal/obs"
)

func TestEventOrdering(t *testing.T) {
	var s Sim
	var order []int
	s.At(5, func() { order = append(order, 2) })
	s.At(1, func() { order = append(order, 1) })
	s.At(9, func() { order = append(order, 3) })
	s.RunUntil(100)
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order %v", order)
	}
	if s.Now() != 100 {
		t.Fatalf("clock %v", s.Now())
	}
}

func TestFIFOAmongEqualTimes(t *testing.T) {
	var s Sim
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(1, func() { order = append(order, i) })
	}
	s.RunUntil(2)
	for i, v := range order {
		if v != i {
			t.Fatalf("ties not FIFO: %v", order)
		}
	}
}

func TestAfterAndNestedScheduling(t *testing.T) {
	var s Sim
	var times []float64
	s.At(1, func() {
		times = append(times, s.Now())
		s.After(2, func() { times = append(times, s.Now()) })
	})
	s.RunUntil(10)
	if len(times) != 2 || times[0] != 1 || times[1] != 3 {
		t.Fatalf("times %v", times)
	}
}

func TestRunUntilStopsAtHorizon(t *testing.T) {
	var s Sim
	fired := false
	s.At(5, func() { fired = true })
	s.RunUntil(3)
	if fired {
		t.Fatal("event beyond horizon fired")
	}
	if s.Now() != 3 {
		t.Fatal("clock should advance to horizon")
	}
	if s.Pending() != 1 {
		t.Fatal("event should remain queued")
	}
	s.RunUntil(10)
	if !fired {
		t.Fatal("event should fire on the next run")
	}
}

func TestStepReturnsFalseWhenEmpty(t *testing.T) {
	var s Sim
	if s.Step() {
		t.Fatal("Step on empty queue should return false")
	}
}

func TestPastSchedulingPanics(t *testing.T) {
	var s Sim
	s.At(5, func() {})
	s.RunUntil(6)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s.At(1, func() {})
}

func TestNegativeDelayPanics(t *testing.T) {
	var s Sim
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s.After(-1, func() {})
}

func TestRunUntilEmptyQueueAdvancesClock(t *testing.T) {
	var s Sim
	s.RunUntil(42)
	if s.Now() != 42 {
		t.Fatalf("clock %v, want 42", s.Now())
	}
	// Running backward-in-horizon must not rewind the clock.
	s.RunUntil(10)
	if s.Now() != 42 {
		t.Fatalf("clock rewound to %v", s.Now())
	}
}

func TestPendingAfterDrain(t *testing.T) {
	var s Sim
	for i := 0; i < 5; i++ {
		s.After(float64(i+1), func() {})
	}
	if s.Pending() != 5 {
		t.Fatalf("pending %d, want 5", s.Pending())
	}
	s.RunUntil(100)
	if s.Pending() != 0 {
		t.Fatalf("pending %d after drain, want 0", s.Pending())
	}
	if s.Step() {
		t.Fatal("Step after drain must report false")
	}
	// The drained simulator stays usable.
	fired := false
	s.After(1, func() { fired = true })
	s.RunUntil(s.Now() + 2)
	if !fired {
		t.Fatal("event after drain did not fire")
	}
}

func TestSchedulingAtCurrentTimeAllowed(t *testing.T) {
	var s Sim
	s.At(5, func() {})
	s.RunUntil(5)
	fired := false
	s.At(5, func() { fired = true }) // exactly now: not "the past"
	s.RunUntil(5)
	if !fired {
		t.Fatal("event at the current time must be runnable")
	}
}

func TestTelemetryCounters(t *testing.T) {
	events0 := obs.C("sched.events").Value()
	var s Sim
	for i := 0; i < 7; i++ {
		s.After(float64(i+1), func() {})
	}
	s.RunUntil(100)
	if d := obs.C("sched.events").Value() - events0; d != 7 {
		t.Fatalf("events delta %d, want 7", d)
	}
	if got := obs.G("sched.max_queue_depth").Value(); got < 7 {
		t.Fatalf("max queue depth %v, want >= 7", got)
	}
}

// FuzzSimOrder checks the heap against a linear scan for the least
// (time, seq). Byte i of the input schedules event i at time b%8, so ties
// are common; when its high bit is set, the event schedules a child
// b&3 later as it fires. Events must fire in the scan's order, each at its
// own time, and Now() must never decrease.
func FuzzSimOrder(f *testing.F) {
	lcg := make([]byte, 300)
	x := uint32(2026)
	for i := range lcg {
		x = x*1664525 + 1013904223
		lcg[i] = byte(x >> 24)
	}
	f.Add(lcg)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1024 {
			// The scan is quadratic; 1024 events already build a heap
			// eleven levels deep, with at most eight distinct times.
			data = data[:1024]
		}
		want := scanOrder(data)

		var s Sim
		var got []int
		nextID := len(data)
		for i, b := range data {
			at := float64(b % 8)
			s.At(at, func() {
				if s.Now() != at {
					t.Fatalf("event %d fired at %v, scheduled for %v", i, s.Now(), at)
				}
				got = append(got, i)
				if b&0x80 != 0 {
					id, childAt := nextID, s.Now()+float64(b&3)
					nextID++
					s.At(childAt, func() {
						if s.Now() != childAt {
							t.Fatalf("child %d fired at %v, scheduled for %v", id, s.Now(), childAt)
						}
						got = append(got, id)
					})
				}
			})
		}
		last := s.Now()
		for s.Step() {
			if s.Now() < last {
				t.Fatalf("clock went back from %v to %v", last, s.Now())
			}
			last = s.Now()
		}
		if s.Pending() != 0 {
			t.Fatalf("%d events pending after the queue drained", s.Pending())
		}
		if len(got) != len(want) {
			t.Fatalf("fired %d events, want %d", len(got), len(want))
		}
		for k := range want {
			if got[k] != want[k] {
				t.Fatalf("event %d: fired id %d, want %d", k, got[k], want[k])
			}
		}
	})
}

// scanOrder replays FuzzSimOrder's schedule with a linear scan for the least
// (time, seq) and returns the ids in firing order.
func scanOrder(data []byte) []int {
	type pending struct {
		time  float64
		seq   int
		id    int
		spawn float64 // delay of the child to schedule on firing; < 0 for none
	}
	var queue []pending
	seq := 0
	for i, b := range data {
		seq++
		spawn := -1.0
		if b&0x80 != 0 {
			spawn = float64(b & 3)
		}
		queue = append(queue, pending{float64(b % 8), seq, i, spawn})
	}
	var order []int
	nextID := len(data)
	for len(queue) > 0 {
		k := 0
		for j := range queue {
			if queue[j].time < queue[k].time ||
				(queue[j].time == queue[k].time && queue[j].seq < queue[k].seq) {
				k = j
			}
		}
		e := queue[k]
		queue = append(queue[:k], queue[k+1:]...)
		order = append(order, e.id)
		if e.spawn >= 0 {
			seq++
			queue = append(queue, pending{e.time + e.spawn, seq, nextID, -1})
			nextID++
		}
	}
	return order
}
