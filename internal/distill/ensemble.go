package distill

import (
	"context"
	"errors"

	"hetarch/internal/mc"
)

// EnsembleStats pools the counters of several independent module
// trajectories. Counts are sums; the delivered rate averages over replicas
// (each replica simulates the same horizon, so the mean rate equals the
// pooled delivered count over the pooled simulated time).
type EnsembleStats struct {
	Replicas      int
	HorizonMicros float64

	Generated   int
	Stored      int
	DroppedFull int
	Attempts    int
	Successes   int
	Delivered   int
}

// DeliveredRatePerSecond returns delivered pairs per second of simulated
// time, averaged over the ensemble.
func (s EnsembleStats) DeliveredRatePerSecond() float64 {
	if s.HorizonMicros <= 0 || s.Replicas <= 0 {
		return 0
	}
	return float64(s.Delivered) / (float64(s.Replicas) * s.HorizonMicros * 1e-6)
}

// RunEnsembleContext simulates `replicas` independent trajectories of the
// module over the same horizon and pools their statistics. The
// event-driven simulator cannot batch shots the way the frame samplers do,
// so here the mc engine shards at one trajectory per shard: replica i runs
// with the deterministic stream seed mc.StreamSeed(cfg.Seed, i), making the
// pooled stats bit-identical for any worker count (workers <= 0 means
// runtime.NumCPU()).
//
// Cancellation stops dispatching new replicas and pools only those that
// completed (Replicas reflects the completed count, so
// DeliveredRatePerSecond stays an unbiased per-replica average), returning
// the *mc.PartialError alongside. Replica trajectories are not
// checkpointed — each shard returns rich Stats, not a Tally — so a resumed
// run re-simulates them; determinism makes that exact, just not free.
func RunEnsembleContext(ctx context.Context, cfg Config, replicas int, horizonMicros float64, workers int) (EnsembleStats, error) {
	if replicas < 1 {
		replicas = 1
	}
	mcCfg := mc.Config{Shots: replicas, Seed: cfg.Seed, Workers: workers, ShardSize: 1}
	perReplica, err := mc.MapShardsContext(ctx, mcCfg, func() func(mc.Shard) Stats {
		return func(sh mc.Shard) Stats {
			c := cfg
			c.Seed = sh.Seed
			return NewModule(c).Run(horizonMicros)
		}
	})
	pooled := EnsembleStats{HorizonMicros: horizonMicros}
	if err != nil {
		var pe *mc.PartialError
		if !errors.As(err, &pe) {
			return EnsembleStats{}, err
		}
		// Pool only the replicas that completed; order them by shard index
		// so the partial pool is deterministic.
		kept := make([]Stats, 0, len(pe.Completed))
		for _, i := range pe.Completed {
			kept = append(kept, perReplica[i])
		}
		perReplica = kept
	}
	pooled.Replicas = len(perReplica)
	for _, s := range perReplica {
		pooled.Generated += s.Generated
		pooled.Stored += s.Stored
		pooled.DroppedFull += s.DroppedFull
		pooled.Attempts += s.Attempts
		pooled.Successes += s.Successes
		pooled.Delivered += s.Delivered
	}
	return pooled, err
}
