package stabsim

import (
	"math"

	"hetarch/internal/splitmix"
)

// referenceMaskParams, newReferenceMaskParams and referenceMask are
// maskParams, newMaskParams and mask as they stood before mask read its
// geometric gaps from per-probability tables, kept verbatim (names aside)
// as the oracle for that rewrite: one math.Log per event. The table
// sampler must reproduce every word they draw.
type referenceMaskParams struct {
	p       float64 // the op's event probability
	logq    float64 // log1p(-p), the geometric-skip denominator
	anyBit  float64 // 1 - (1-p)^64: P(at least one of 64 shots draws the event)
	degener bool    // p <= 0 or p >= 1: no randomness needed
}

func newReferenceMaskParams(p float64) referenceMaskParams {
	m := referenceMaskParams{p: p}
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

// referenceMask draws a 64-bit word whose bits are independently 1 with the op's
// probability, consuming one uniform plus one per set bit. The fast path —
// one draw, one compare — handles the all-zero word that dominates at the
// physical error rates of the evaluation sweeps.
func (m *referenceMaskParams) referenceMask(rng *splitmix.RNG) uint64 {
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

// referenceNoise is the per-op loop of NewBatchFrameSampler as it stood
// with referenceMaskParams.
func referenceNoise(c *Circuit) []referenceMaskParams {
	noise := make([]referenceMaskParams, len(c.Ops))
	for i := range c.Ops {
		op := &c.Ops[i]
		switch op.Code {
		case OpM, OpMR, OpDepolarize1, OpDepolarize2, OpXError, OpYError, OpZError:
			noise[i] = newReferenceMaskParams(op.Args[0])
		case OpPauliChannel1:
			noise[i] = newReferenceMaskParams(op.Args[0] + op.Args[1] + op.Args[2])
		}
	}
	return noise
}

// referenceSampleBatch is SampleBatch as it stood before its Pauli events
// were applied without data-dependent branches, kept verbatim as the
// oracle for that rewrite: each event takes a three-way switch on its
// draw and XORs its shot bit into the frame at once. It draws its event
// words with referenceMask from noise, the circuit's referenceNoise. The
// rewrite must reproduce its detector, observable and frame words bit for
// bit (TestBatchSamplerMatchesReference, FuzzBatchSampler). Only the
// method names, the noise parameter and the mask calls differ from the
// original.
func (b *BatchFrameSampler) referenceSampleBatch(noise []referenceMaskParams) BatchResult {
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
				b.flips = append(b.flips, b.fx[q]^noise[i].referenceMask(b.rng))
			}
		case OpMR:
			for _, q := range op.Targets {
				b.flips = append(b.flips, b.fx[q]^noise[i].referenceMask(b.rng))
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
				b.referenceApplySparsePauli(q, noise[i].referenceMask(b.rng))
			}
		case OpDepolarize2:
			for t := 0; t < len(op.Targets); t += 2 {
				events := noise[i].referenceMask(b.rng)
				for events != 0 {
					bit := events & (-events)
					events &^= bit
					k := 1 + b.rng.Intn(15)
					b.referenceApplyPauliCodeBit(op.Targets[t], k&3, bit)
					b.referenceApplyPauliCodeBit(op.Targets[t+1], k>>2, bit)
				}
			}
		case OpXError:
			for _, q := range op.Targets {
				b.fx[q] ^= noise[i].referenceMask(b.rng)
			}
		case OpYError:
			for _, q := range op.Targets {
				m := noise[i].referenceMask(b.rng)
				b.fx[q] ^= m
				b.fz[q] ^= m
			}
		case OpZError:
			for _, q := range op.Targets {
				b.fz[q] ^= noise[i].referenceMask(b.rng)
			}
		case OpPauliChannel1:
			px, py, pz := op.Args[0], op.Args[1], op.Args[2]
			total := px + py + pz
			for _, q := range op.Targets {
				events := noise[i].referenceMask(b.rng)
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

// referenceApplySparsePauli XORs a uniformly random non-identity Pauli into the
// frame at q for each set bit of the event mask.
func (b *BatchFrameSampler) referenceApplySparsePauli(q int, events uint64) {
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

// referenceApplyPauliCodeBit XORs Pauli code (0=I 1=X 2=Y 3=Z) into shot bit `bit`
// of qubit q's frame.
func (b *BatchFrameSampler) referenceApplyPauliCodeBit(q, code int, bit uint64) {
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
