// The run scope both front ends share: one experiment run, whether a
// one-shot `hetarch <experiment>` invocation or a hetarchd job, is
// described by a jobs.Spec, metered by one runMeter bound on its context,
// journaled through the same ledger opener, and stamped into the ledger by
// the same envelope constructor.
package main

import (
	"log/slog"
	"runtime"
	"sync/atomic"
	"time"

	"hetarch/internal/bench"
	"hetarch/internal/experiments"
	"hetarch/internal/jobs"
	"hetarch/internal/mc"
	"hetarch/internal/obs/ledger"
	"hetarch/internal/obs/runlog"
)

// scaleOf is the experiment scale a spec asks for: the quick or full
// preset with the spec's shot override and worker count.
func scaleOf(spec jobs.Spec) experiments.Scale {
	sc := experiments.Full()
	if spec.Scale == jobs.ScaleQuick {
		sc = experiments.Quick()
	}
	if spec.Shots > 0 {
		sc.Shots = spec.Shots
	}
	sc.Workers = spec.Workers
	return sc
}

// runMeter is a run's one shot tally. Bound with mc.WithCheckpoint, it
// sees every shard the run's Monte Carlo accounts for, executed fresh or
// replayed from the checkpoint, and counts its shots and logical errors.
// With a store (cp) it forwards both calls unchanged, so resume stays
// bit-identical; without one it persists nothing and every lookup misses.
// cp must be a nil interface, not a typed nil, when there is no store.
type runMeter struct {
	cp       mc.Checkpoint
	progress func(int64) // optional per-shard hook (a job's SSE stream)
	shots    atomic.Int64
	errs     atomic.Int64
}

func (m *runMeter) Lookup(key mc.RunKey, sh mc.Shard) (mc.Tally, bool) {
	if m.cp == nil {
		return mc.Tally{}, false
	}
	t, ok := m.cp.Lookup(key, sh)
	if ok {
		m.count(t)
	}
	return t, ok
}

func (m *runMeter) Record(key mc.RunKey, sh mc.Shard, t mc.Tally) error {
	if m.cp != nil {
		if err := m.cp.Record(key, sh, t); err != nil {
			return err
		}
	}
	m.count(t)
	return nil
}

func (m *runMeter) count(t mc.Tally) {
	m.shots.Add(t.Shots)
	m.errs.Add(t.Errors)
	if m.progress != nil {
		m.progress(t.Shots)
	}
}

// headline folds the tally so far into the run's ledger headline.
func (m *runMeter) headline(wallSeconds float64) *ledger.Headline {
	return ledger.NewHeadline(m.shots.Load(), m.errs.Load(), wallSeconds)
}

// openLedger opens the run ledger: dir when given ("off" disables), else
// $HETARCH_LEDGER_DIR, then ~/.hetarch. An explicit dir that cannot be
// opened is an error; a broken default degrades to a warning, because
// provenance must never fail a run the user did not ask to journal. It
// returns a nil ledger when journaling is off.
func openLedger(dir string, lg *slog.Logger) (*ledger.Ledger, error) {
	explicit, enabled := dir != "", true
	if !explicit {
		dir, enabled = ledger.DefaultDir()
	} else if dir == ledger.Off {
		enabled = false
	}
	if !enabled {
		lg.Info(runlog.EvLedgerDisabled)
		return nil, nil
	}
	l, err := ledger.Open(dir)
	if err != nil && !explicit {
		lg.Warn(runlog.EvLedgerDisabled, "error", err.Error())
		return nil, nil
	}
	return l, err
}

// newEnvelope is the ledger envelope of a finished run, built alike by both
// front ends: the spec, the outcome, the meter's tally as headline, and
// the build identity of this binary. Callers add the args, the resume
// provenance and the artifact manifest.
func newEnvelope(tool, id string, spec jobs.Spec, start time.Time, status string, runErr error, meter *runMeter) ledger.Envelope {
	wall := time.Since(start).Seconds()
	e := ledger.Envelope{
		RunID:       id,
		Tool:        tool,
		Experiment:  spec.Experiment,
		Scale:       spec.Scale,
		Seed:        spec.Seed,
		Shots:       spec.Shots,
		Workers:     mc.ResolveWorkers(spec.Workers),
		GoVersion:   runtime.Version(),
		StartedAt:   start.UTC().Format(time.RFC3339),
		EndedAt:     time.Now().UTC().Format(time.RFC3339),
		WallSeconds: wall,
		Status:      status,
		Metrics:     meter.headline(wall),
	}
	e.GitRevision, e.GitDirty = bench.VCSRevision()
	if runErr != nil {
		e.Error = runErr.Error()
	}
	return e
}
