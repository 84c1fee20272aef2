// Package sched is a small deterministic discrete-event simulator used by
// the entanglement-distillation module, whose operation is driven by
// stochastic EP generation and must dynamically coordinate memory and
// distillation resources (Section 4.1 of the paper).
package sched

import (
	"time"

	"hetarch/internal/obs"
)

// Scheduler telemetry, aggregated across all Sim instances: total events
// dispatched, the deepest queue ever observed, cumulative virtual time
// advanced by RunUntil, and the wall time those drains took — together the
// virtual-vs-wall speed of the event-driven simulations.
var (
	schedEvents   = obs.C("sched.events")
	schedMaxDepth = obs.G("sched.max_queue_depth")
	schedVirtual  = obs.G("sched.virtual_time_us")
	schedWall     = obs.H("sched.run_wall_ns")
)

// event is one scheduled callback.
type event struct {
	time float64
	seq  int64 // tie-breaker: FIFO among equal times
	fn   func()
}

// before orders events by (time, seq), a strict total order, so the firing
// order does not depend on the heap's layout.
func (e *event) before(f *event) bool {
	if e.time != f.time {
		return e.time < f.time
	}
	return e.seq < f.seq
}

// Sim is a discrete-event simulation clock. The zero value is ready to use.
//
// The queue is a binary min-heap of events held by value, so scheduling
// allocates nothing once the slice has grown to the deepest queue seen; a
// heap.Interface queue would box every pushed event in an interface.
type Sim struct {
	now   float64
	seq   int64
	queue []event
}

// Now returns the current simulation time.
func (s *Sim) Now() float64 { return s.now }

// At schedules fn at absolute time t (t must not be in the past).
func (s *Sim) At(t float64, fn func()) {
	if t < s.now {
		panic("sched: scheduling into the past")
	}
	s.seq++
	s.queue = append(s.queue, event{time: t, seq: s.seq, fn: fn})
	s.siftUp(len(s.queue) - 1)
	schedMaxDepth.SetMax(float64(len(s.queue)))
}

// After schedules fn d time units from now.
func (s *Sim) After(d float64, fn func()) {
	if d < 0 {
		panic("sched: negative delay")
	}
	s.At(s.now+d, fn)
}

// Step executes the next event; it reports false when the queue is empty.
func (s *Sim) Step() bool {
	n := len(s.queue) - 1
	if n < 0 {
		return false
	}
	e := s.queue[0]
	s.queue[0] = s.queue[n]
	s.queue[n] = event{} // drop the callback so the queue does not retain it
	s.queue = s.queue[:n]
	s.siftDown(0)
	s.now = e.time
	schedEvents.Inc()
	e.fn()
	return true
}

// siftUp moves the event at index j towards the root until its parent
// precedes it.
func (s *Sim) siftUp(j int) {
	q := s.queue
	e := q[j]
	for j > 0 {
		i := (j - 1) / 2
		if !e.before(&q[i]) {
			break
		}
		q[j] = q[i]
		j = i
	}
	q[j] = e
}

// siftDown moves the event at index i towards the leaves until it precedes
// both children.
func (s *Sim) siftDown(i int) {
	q := s.queue
	n := len(q)
	if i >= n {
		return
	}
	e := q[i]
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && q[r].before(&q[c]) {
			c = r
		}
		if !q[c].before(&e) {
			break
		}
		q[i] = q[c]
		i = c
	}
	q[i] = e
}

// RunUntil executes events in order until the clock would pass t or the
// queue drains; the clock is left at min(t, last event time ≥ current).
func (s *Sim) RunUntil(t float64) {
	start := time.Now()
	before := s.now
	for len(s.queue) > 0 && s.queue[0].time <= t {
		s.Step()
	}
	if s.now < t {
		s.now = t
	}
	schedVirtual.Add(s.now - before)
	schedWall.Observe(time.Since(start).Nanoseconds())
}

// Pending returns the number of queued events.
func (s *Sim) Pending() int { return len(s.queue) }
