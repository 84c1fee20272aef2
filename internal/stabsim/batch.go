package stabsim

import (
	"hetarch/internal/splitmix"
	"math"
	"math/bits"

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

// ForEachDetectorBit walks the set bits of the packed detector words,
// calling fn(detector, shot) for every fired (detector, shot) pair in
// (detector-major, shot-minor) order. At the physical error rates of the
// evaluation sweeps most words are zero, so a full sweep costs one word
// test per detector plus one call per actual defect. The decode hot paths
// (decoder.DecodeBatch, the uec syndrome transpose) inline the same
// TrailingZeros64 walk to keep their per-shot buffers local; this is the
// general-purpose form for new consumers.
func (r BatchResult) ForEachDetectorBit(fn func(detector, shot int)) {
	for d, w := range r.Detectors {
		for w != 0 {
			s := bits.TrailingZeros64(w)
			w &= w - 1
			fn(d, s)
		}
	}
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
				events := b.noise[i].mask(b.rng)
				for events != 0 {
					bit := events & (-events)
					events &^= bit
					k := 1 + b.rng.Intn(15)
					b.applyPauliCodeBit(op.Targets[t], k&3, bit)
					b.applyPauliCodeBit(op.Targets[t+1], k>>2, bit)
				}
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
			px, py, pz := op.Args[0], op.Args[1], op.Args[2]
			total := px + py + pz
			for _, q := range op.Targets {
				events := b.noise[i].mask(b.rng)
				for events != 0 {
					bit := events & (-events)
					events &^= bit
					u := b.rng.Float64() * total
					switch {
					case u < px:
						b.fx[q] ^= bit
					case u < px+py:
						b.fx[q] ^= bit
						b.fz[q] ^= bit
					default:
						b.fz[q] ^= bit
					}
				}
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
// frame at q for each set bit of the event mask.
func (b *BatchFrameSampler) applySparsePauli(q int, events uint64) {
	for events != 0 {
		bit := events & (-events)
		events &^= bit
		switch b.rng.Intn(3) {
		case 0:
			b.fx[q] ^= bit
		case 1:
			b.fx[q] ^= bit
			b.fz[q] ^= bit
		default:
			b.fz[q] ^= bit
		}
	}
}

// applyPauliCodeBit XORs Pauli code (0=I 1=X 2=Y 3=Z) into shot bit `bit`
// of qubit q's frame.
func (b *BatchFrameSampler) applyPauliCodeBit(q, code int, bit uint64) {
	switch code {
	case 1:
		b.fx[q] ^= bit
	case 2:
		b.fx[q] ^= bit
		b.fz[q] ^= bit
	case 3:
		b.fz[q] ^= bit
	}
}
