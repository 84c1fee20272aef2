package stabsim

// Cross-validation of the PARALLEL sampling path against exact ground
// truth: the sharded BatchFrameSampler (driven through the mc engine from
// multiple workers) must reproduce the detector-event distributions of the
// serial CHP tableau runner on randomized Clifford+noise circuits — so the
// parallel path is checked against an independent simulator, not just
// against itself.

import (
	"context"
	"math"
	"math/bits"
	"math/rand"
	"testing"

	"hetarch/internal/mc"
	"hetarch/internal/splitmix"
)

// randomEchoCircuit builds a C ; noise ; C† ; measure-all circuit from a
// random Clifford C. The conjugated form returns to |0…0⟩ noiselessly, so
// every measurement has deterministic (zero) parity and qualifies as a
// detector — the contract the frame sampler requires, which an arbitrary
// random Clifford circuit would not satisfy.
func randomEchoCircuit(rng *rand.Rand, n, depth int, pDepol, pMeas float64) *Circuit {
	ops := randomCliffordCircuit(rng, n, depth)
	c := NewCircuit(n)
	apply := func(o cliffordOp, invert bool) {
		switch o.kind {
		case 0:
			c.H(o.a)
		case 1:
			if invert {
				c.SDag(o.a)
			} else {
				c.S(o.a)
			}
		case 2:
			c.CX(o.a, o.b)
		case 3:
			c.CZ(o.a, o.b)
		case 4:
			c.Swap(o.a, o.b)
		case 5:
			c.X(o.a)
		}
	}
	for _, o := range ops {
		apply(o, false)
	}
	for q := 0; q < n; q++ {
		c.Depolarize1(pDepol, q)
	}
	for i := len(ops) - 1; i >= 0; i-- {
		apply(ops[i], true)
	}
	c.MFlip(pMeas, seqQubits(n)...)
	for q := 0; q < n; q++ {
		c.Detector(-(n - q))
	}
	c.Observable(0, -n)
	return c
}

func seqQubits(n int) []int {
	qs := make([]int, n)
	for i := range qs {
		qs[i] = i
	}
	return qs
}

// sampleShardedDetectorCounts draws `shots` shots through worker-owned
// BatchFrameSamplers on the mc engine and returns per-detector event counts.
func sampleShardedDetectorCounts(t *testing.T, c *Circuit, shots int, seed int64, workers int) []int64 {
	t.Helper()
	nDet := c.NumDetectors()
	perShard, err := mc.MapShardsContext(context.Background(), mc.Config{Shots: shots, Seed: seed, Workers: workers},
		func() func(mc.Shard) []int64 {
			rng := splitmix.New(0)
			bs := NewBatchFrameSampler(c, rng)
			return func(sh mc.Shard) []int64 {
				rng.Seed(sh.Seed)
				counts := make([]int64, nDet)
				for done := 0; done < sh.Shots; {
					batch := bs.SampleBatch()
					n := 64
					if sh.Shots-done < n {
						n = sh.Shots - done
					}
					mask := ^uint64(0)
					if n < 64 {
						mask = 1<<uint(n) - 1
					}
					for d := 0; d < nDet; d++ {
						counts[d] += int64(bits.OnesCount64(batch.Detectors[d] & mask))
					}
					done += n
				}
				return counts
			}
		})
	if err != nil {
		t.Fatal(err)
	}
	total := make([]int64, nDet)
	for _, counts := range perShard {
		for d, v := range counts {
			total[d] += v
		}
	}
	return total
}

// TestShardedSamplerMatchesTableauOnRandomCircuits compares per-detector
// firing rates between the sharded frame sampler and the exact tableau
// runner with a two-proportion z tolerance (the per-detector cell of a
// chi-square homogeneity test): |p̂1−p̂2| must stay within zLimit standard
// errors of the pooled proportion. zLimit=4.5 puts a single cell's false-
// alarm probability below 1e-5; the seeds are fixed, so the test is
// deterministic regardless.
func TestShardedSamplerMatchesTableauOnRandomCircuits(t *testing.T) {
	const (
		n          = 4
		depth      = 18
		pDepol     = 0.08
		pMeas      = 0.04
		frameShots = 8192
		tabShots   = 3000
		zLimit     = 4.5
	)
	circuits := 3
	if testing.Short() {
		circuits = 1
	}
	for ci := 0; ci < circuits; ci++ {
		rng := rand.New(rand.NewSource(int64(100 + ci)))
		c := randomEchoCircuit(rng, n, depth, pDepol, pMeas)

		// Precondition: the echo construction must satisfy the detector
		// determinism contract the frame sampler assumes.
		if !NewTableauRunner(c, rng).VerifyDetectorsDeterministic(4) {
			t.Fatalf("circuit %d: echo circuit has non-deterministic detectors", ci)
		}

		frameCounts := sampleShardedDetectorCounts(t, c, frameShots, int64(7+ci), 4)

		tab := NewTableauRunner(c, rand.New(rand.NewSource(int64(53+ci))))
		tabCounts := make([]int64, c.NumDetectors())
		for s := 0; s < tabShots; s++ {
			shot := tab.Sample()
			for d, fired := range shot.Detectors {
				if fired {
					tabCounts[d]++
				}
			}
		}

		for d := 0; d < c.NumDetectors(); d++ {
			p1 := float64(frameCounts[d]) / frameShots
			p2 := float64(tabCounts[d]) / tabShots
			pooled := float64(frameCounts[d]+tabCounts[d]) / float64(frameShots+tabShots)
			se := math.Sqrt(pooled * (1 - pooled) * (1.0/frameShots + 1.0/tabShots))
			if se == 0 {
				if frameCounts[d] != tabCounts[d] {
					t.Fatalf("circuit %d detector %d: zero-variance disagreement", ci, d)
				}
				continue
			}
			if z := math.Abs(p1-p2) / se; z > zLimit {
				t.Fatalf("circuit %d detector %d: sharded sampler %.4f vs tableau %.4f (z=%.1f)",
					ci, d, p1, p2, z)
			}
		}
	}
}

// TestShardedSamplerDetectorCountsWorkerIndependent pins the engine contract
// at the raw sampling layer: identical per-detector counts at any worker
// count.
func TestShardedSamplerDetectorCountsWorkerIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	c := randomEchoCircuit(rng, 4, 18, 0.08, 0.04)
	base := sampleShardedDetectorCounts(t, c, 4096, 3, 1)
	for _, w := range []int{2, 4, 8} {
		got := sampleShardedDetectorCounts(t, c, 4096, 3, w)
		for d := range base {
			if got[d] != base[d] {
				t.Fatalf("workers=%d detector %d: %d != %d", w, d, got[d], base[d])
			}
		}
	}
}
