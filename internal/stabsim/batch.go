package stabsim

import (
	"hetarch/internal/splitmix"
	"math"

	"hetarch/internal/obs"
)

// Batch sampling telemetry: one atomic add per 64-shot batch, invisible
// against the cost of replaying the circuit.
var (
	batchCount      = obs.C("stabsim.batches")
	batchShotsCount = obs.C("stabsim.batch_shots")
)

// maskParams is the per-op precomputed state of the geometric-skip Bernoulli
// sampler. Every noise op has a fixed probability, so log1p(-p) — one math
// call per mask draw in the naive formulation — is computed once per circuit
// op at sampler construction, and the probability that a whole 64-shot word
// is error-free, q^64, becomes a single precomputed threshold: the common
// all-zero mask then costs one uniform draw and one compare instead of a
// math.Log.
type maskParams struct {
	p       float64 // the op's event probability
	logq    float64 // log1p(-p), the geometric-skip denominator
	anyBit  float64 // 1 - (1-p)^64: P(at least one of 64 shots draws the event)
	degener bool    // p <= 0 or p >= 1: no randomness needed
}

func newMaskParams(p float64) maskParams {
	m := maskParams{p: p}
	if p <= 0 || p >= 1 {
		m.degener = true
		return m
	}
	m.logq = math.Log1p(-p)
	// P(no set bit) = q^64 = exp(64·log q); the first geometric gap is >= 64
	// exactly when the uniform draw u satisfies 1-u <= q^64.
	m.anyBit = 1 - math.Exp(64*m.logq)
	return m
}

// mask draws a 64-bit word whose bits are independently 1 with the op's
// probability, consuming one uniform plus one per set bit. The fast path —
// one draw, one compare — handles the all-zero word that dominates at the
// physical error rates of the evaluation sweeps.
func (m *maskParams) mask(rng *splitmix.RNG) uint64 {
	if m.degener {
		if m.p >= 1 {
			return ^uint64(0)
		}
		return 0
	}
	u := rng.Float64()
	if u >= m.anyBit {
		return 0
	}
	var w uint64
	pos := int(math.Log(1-u) / m.logq)
	for pos < 64 {
		w |= 1 << uint(pos)
		pos++
		u = rng.Float64()
		pos += int(math.Log(1-u) / m.logq)
	}
	return w
}

// BatchFrameSampler propagates 64 Pauli frames simultaneously, one per bit
// of a machine word — the bit-parallel trick that gives Stim-class sampling
// throughput. Clifford frame updates become one or two word operations;
// noise channels sample sparse bit masks (errors are rare, so the expected
// cost per channel is O(64·p) rather than O(64)).
//
// The output is bit-transposed relative to FrameSampler: each detector and
// observable is reported as a 64-bit word holding that signal for all 64
// shots of the batch.
type BatchFrameSampler struct {
	c   *Circuit
	rng *splitmix.RNG

	fx, fz    []uint64 // frame words, one per qubit
	flips     []uint64 // measurement-record words
	detectors []uint64
	obs       []uint64
	noise     []maskParams // per-op cached Bernoulli state (zero for non-noise ops)
}

// NewBatchFrameSampler prepares a bit-parallel sampler for the circuit.
func NewBatchFrameSampler(c *Circuit, rng *splitmix.RNG) *BatchFrameSampler {
	b := &BatchFrameSampler{
		c:         c,
		rng:       rng,
		fx:        make([]uint64, c.N),
		fz:        make([]uint64, c.N),
		flips:     make([]uint64, 0, c.numMeasurements),
		detectors: make([]uint64, c.numDetectors),
		obs:       make([]uint64, c.numObservables),
		noise:     make([]maskParams, len(c.Ops)),
	}
	for i := range c.Ops {
		op := &c.Ops[i]
		switch op.Code {
		case OpM, OpMR, OpDepolarize1, OpDepolarize2, OpXError, OpYError, OpZError:
			b.noise[i] = newMaskParams(op.Args[0])
		case OpPauliChannel1:
			b.noise[i] = newMaskParams(op.Args[0] + op.Args[1] + op.Args[2])
		}
	}
	return b
}

// BatchResult carries 64 shots: bit s of Detectors[d] is detector d's event
// in shot s, and likewise for Observables.
type BatchResult struct {
	Detectors   []uint64
	Observables []uint64
}

// SampleBatch executes 64 shots and returns their detector and observable
// words. The returned slices alias the sampler's internal buffers: they are
// valid until the next SampleBatch call and must not be retained or
// mutated. Steady-state sampling is allocation-free.
func (b *BatchFrameSampler) SampleBatch() BatchResult {
	batchCount.Inc()
	batchShotsCount.Add(64)
	for i := range b.fx {
		b.fx[i] = 0
		b.fz[i] = 0
	}
	b.flips = b.flips[:0]
	for i := range b.detectors {
		b.detectors[i] = 0
	}
	for i := range b.obs {
		b.obs[i] = 0
	}
	det := 0
	for i := range b.c.Ops {
		op := &b.c.Ops[i]
		switch op.Code {
		case OpH:
			for _, q := range op.Targets {
				b.fx[q], b.fz[q] = b.fz[q], b.fx[q]
			}
		case OpS, OpSDag:
			for _, q := range op.Targets {
				b.fz[q] ^= b.fx[q]
			}
		case OpX, OpY, OpZ, OpTick:
			// Pauli gates commute with Pauli frames.
		case OpCX:
			for t := 0; t < len(op.Targets); t += 2 {
				cq, tq := op.Targets[t], op.Targets[t+1]
				b.fx[tq] ^= b.fx[cq]
				b.fz[cq] ^= b.fz[tq]
			}
		case OpCZ:
			for t := 0; t < len(op.Targets); t += 2 {
				aq, bq := op.Targets[t], op.Targets[t+1]
				b.fz[bq] ^= b.fx[aq]
				b.fz[aq] ^= b.fx[bq]
			}
		case OpSwap:
			for t := 0; t < len(op.Targets); t += 2 {
				aq, bq := op.Targets[t], op.Targets[t+1]
				b.fx[aq], b.fx[bq] = b.fx[bq], b.fx[aq]
				b.fz[aq], b.fz[bq] = b.fz[bq], b.fz[aq]
			}
		case OpM:
			for _, q := range op.Targets {
				b.flips = append(b.flips, b.fx[q]^b.noise[i].mask(b.rng))
			}
		case OpMR:
			for _, q := range op.Targets {
				b.flips = append(b.flips, b.fx[q]^b.noise[i].mask(b.rng))
				b.fx[q] = 0
				b.fz[q] = 0
			}
		case OpR:
			for _, q := range op.Targets {
				b.fx[q] = 0
				b.fz[q] = 0
			}
		case OpDepolarize1:
			for _, q := range op.Targets {
				b.applySparsePauli(q, b.noise[i].mask(b.rng))
			}
		case OpDepolarize2:
			for t := 0; t < len(op.Targets); t += 2 {
				// Code k = 1..15 is the pair's non-identity Pauli: k&3 on
				// the first qubit, k>>2 on the second.
				var ax, az, bx, bz uint64
				events := b.noise[i].mask(b.rng)
				for events != 0 {
					bit := events & (-events)
					events &^= bit
					k := uint64(1 + b.rng.Intn(15))
					x, z := pauliBits(k & 3)
					ax |= bit & -x
					az |= bit & -z
					x, z = pauliBits(k >> 2)
					bx |= bit & -x
					bz |= bit & -z
				}
				b.fx[op.Targets[t]] ^= ax
				b.fz[op.Targets[t]] ^= az
				b.fx[op.Targets[t+1]] ^= bx
				b.fz[op.Targets[t+1]] ^= bz
			}
		case OpXError:
			for _, q := range op.Targets {
				b.fx[q] ^= b.noise[i].mask(b.rng)
			}
		case OpYError:
			for _, q := range op.Targets {
				m := b.noise[i].mask(b.rng)
				b.fx[q] ^= m
				b.fz[q] ^= m
			}
		case OpZError:
			for _, q := range op.Targets {
				b.fz[q] ^= b.noise[i].mask(b.rng)
			}
		case OpPauliChannel1:
			// u < px is X, u < px+py is Y, anything above is Z: the event
			// has an X component when u < px+py and a Z component when
			// u >= px (px+py >= px, as py >= 0).
			px, py, pz := op.Args[0], op.Args[1], op.Args[2]
			total, pxy := px+py+pz, px+py
			for _, q := range op.Targets {
				var mx, mz uint64
				events := b.noise[i].mask(b.rng)
				for events != 0 {
					bit := events & (-events)
					events &^= bit
					u := b.rng.Float64() * total
					mx |= bit & -b2u(u < pxy)
					mz |= bit & -b2u(u >= px)
				}
				b.fx[q] ^= mx
				b.fz[q] ^= mz
			}
		case OpDetector:
			var v uint64
			for _, r := range op.Recs {
				v ^= b.flips[len(b.flips)+r]
			}
			b.detectors[det] = v
			det++
		case OpObservable:
			for _, r := range op.Recs {
				b.obs[op.Index] ^= b.flips[len(b.flips)+r]
			}
		}
	}
	return BatchResult{
		Detectors:   b.detectors,
		Observables: b.obs,
	}
}

// applySparsePauli XORs a uniformly random non-identity Pauli into the
// frame at q for each set bit of the event mask. The draw r = 0, 1, 2 is
// X, Y, Z: the event has an X component when r < 2 and a Z component when
// r > 0. The masks collect the events' distinct bits and meet the frame
// once.
func (b *BatchFrameSampler) applySparsePauli(q int, events uint64) {
	var mx, mz uint64
	for events != 0 {
		bit := events & (-events)
		events &^= bit
		r := b.rng.Intn(3)
		mx |= bit & -b2u(r < 2)
		mz |= bit & -b2u(r > 0)
	}
	b.fx[q] ^= mx
	b.fz[q] ^= mz
}

// pauliBits splits Pauli code c (0=I 1=X 2=Y 3=Z) into its X and Z
// components, each 0 or 1.
func pauliBits(c uint64) (x, z uint64) { return (c ^ c>>1) & 1, c >> 1 }

// b2u is 1 for true and 0 for false. The compiler emits it as a SETcc, so
// an event mask takes a comparison without a branch.
func b2u(c bool) uint64 {
	if c {
		return 1
	}
	return 0
}
