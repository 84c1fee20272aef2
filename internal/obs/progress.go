package obs

import (
	"fmt"
	"io"
	"sync"
	"time"
)

// Heartbeat periodically reports progress of a long-running job: elapsed
// wall time, a monotone work counter (typically Monte Carlo shots), its
// rate over the last interval, and — when an approximate total is known —
// an ETA. Each tick writes a single line to w (stderr in the CLI).
type Heartbeat struct {
	w        io.Writer
	read     func() int64
	total    int64
	interval time.Duration
	start    time.Time
	stop     chan struct{}
	done     chan struct{}
	stopOnce sync.Once
}

// StartHeartbeat launches the reporting goroutine. read must be safe to
// call concurrently with the instrumented work; total ≤ 0 suppresses the
// ETA. Call Stop to halt reporting.
func StartHeartbeat(w io.Writer, interval time.Duration, total int64, read func() int64) *Heartbeat {
	if interval <= 0 {
		interval = 2 * time.Second
	}
	h := &Heartbeat{
		w:        w,
		read:     read,
		total:    total,
		interval: interval,
		start:    time.Now(),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	go h.loop()
	return h
}

func (h *Heartbeat) loop() {
	defer close(h.done)
	tick := time.NewTicker(h.interval)
	defer tick.Stop()
	last := h.read()
	lastAt := h.start
	for {
		select {
		case <-h.stop:
			return
		case now := <-tick.C:
			cur := h.read()
			rate := float64(cur-last) / now.Sub(lastAt).Seconds()
			last, lastAt = cur, now
			h.line(cur, rate)
		}
	}
}

// line prints one progress line: elapsed time, the counter, its rate and,
// when the total is known and not yet reached, the ETA at that rate.
func (h *Heartbeat) line(cur int64, rate float64) {
	elapsed := time.Since(h.start).Round(time.Second)
	fmt.Fprintf(h.w, "progress: %s elapsed, %d shots (%.0f/s)", elapsed, cur, rate)
	if h.total > 0 && rate > 0 && cur < h.total {
		eta := time.Duration(float64(h.total-cur) / rate * float64(time.Second))
		fmt.Fprintf(h.w, ", ~%s remaining", eta.Round(time.Second))
	}
	fmt.Fprintln(h.w)
}

// Stop halts the heartbeat and prints a final line with the overall
// average rate. Stop is idempotent — the CLI both defers it (so an early
// error return cannot leak the ticker goroutine) and calls it explicitly
// before printing telemetry.
func (h *Heartbeat) Stop() {
	h.stopOnce.Do(func() {
		close(h.stop)
		<-h.done
		cur := h.read()
		var avg float64
		if secs := time.Since(h.start).Seconds(); secs > 0 {
			avg = float64(cur) / secs
		}
		h.line(cur, avg)
	})
}
