// The run scope of one `hetarch <experiment>` invocation: one runMeter
// bound on its context tallies the run's shots, and openLedger resolves the
// run ledger the invocation's envelope is appended to.
package main

import (
	"log/slog"
	"sync/atomic"

	"hetarch/internal/mc"
	"hetarch/internal/obs/ledger"
	"hetarch/internal/obs/runlog"
)

// runMeter is a run's one shot tally. Bound with mc.WithCheckpoint, it
// sees every shard the run's Monte Carlo accounts for, executed fresh or
// replayed from the checkpoint, and counts its shots and logical errors.
// With a store (cp) it forwards both calls unchanged, so resume stays
// bit-identical; without one it persists nothing and every lookup misses.
// cp must be a nil interface, not a typed nil, when there is no store.
type runMeter struct {
	cp    mc.Checkpoint
	shots atomic.Int64
	errs  atomic.Int64
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
