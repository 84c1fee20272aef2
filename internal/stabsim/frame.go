package stabsim

import (
	"math/rand"

	"hetarch/internal/obs"
	"hetarch/internal/pauli"
)

// frameSamples counts scalar shots drawn through FrameSampler.Sample.
var frameSamples = obs.C("stabsim.frame_samples")

// FrameSampler is the fast Monte Carlo backend: it tracks only the Pauli
// difference ("frame") between the noisy execution and the noiseless
// reference, so each shot costs O(circuit length).
//
// The contract is the standard one: every DETECTOR must reference a
// measurement set whose parity is deterministic without noise. Under that
// contract a detector fires exactly when the XOR of its referenced
// measurement *flips* is 1, and an observable flips likewise.
type FrameSampler struct {
	c   *Circuit
	rng *rand.Rand

	fx, fz    pauli.Bits // current frame
	flips     []bool     // measurement-record flip bits
	detectors []bool
	obs       []bool
}

// NewFrameSampler prepares a sampler for the circuit using the given RNG.
func NewFrameSampler(c *Circuit, rng *rand.Rand) *FrameSampler {
	return &FrameSampler{
		c:         c,
		rng:       rng,
		fx:        pauli.NewBits(c.N),
		fz:        pauli.NewBits(c.N),
		flips:     make([]bool, 0, c.numMeasurements),
		detectors: make([]bool, c.numDetectors),
		obs:       make([]bool, c.numObservables),
	}
}

// ShotResult carries one shot's detector events and observable flips.
type ShotResult struct {
	Detectors        []bool
	Observables      []bool
	MeasurementFlips []bool
}

// Sample executes one shot and returns the detector/observable flip vectors.
// The returned slices are freshly allocated and owned by the caller.
func (f *FrameSampler) Sample() ShotResult {
	frameSamples.Inc()
	f.fx.Clear()
	f.fz.Clear()
	f.flips = f.flips[:0]
	for i := range f.detectors {
		f.detectors[i] = false
	}
	for i := range f.obs {
		f.obs[i] = false
	}
	det := 0
	for i := range f.c.Ops {
		op := &f.c.Ops[i]
		switch op.Code {
		case OpH:
			for _, q := range op.Targets {
				x, z := f.fx.Get(q), f.fz.Get(q)
				f.fx.Set(q, z)
				f.fz.Set(q, x)
			}
		case OpS, OpSDag:
			// S: X → Y (adds Z component); Z → Z. Frame signs are irrelevant.
			for _, q := range op.Targets {
				if f.fx.Get(q) {
					f.fz.Flip(q)
				}
			}
		case OpX, OpY, OpZ, OpTick:
			// Pauli gates commute with Pauli frames up to sign; no-op.
		case OpCX:
			for t := 0; t < len(op.Targets); t += 2 {
				cq, tq := op.Targets[t], op.Targets[t+1]
				if f.fx.Get(cq) {
					f.fx.Flip(tq)
				}
				if f.fz.Get(tq) {
					f.fz.Flip(cq)
				}
			}
		case OpCZ:
			for t := 0; t < len(op.Targets); t += 2 {
				a, b := op.Targets[t], op.Targets[t+1]
				if f.fx.Get(a) {
					f.fz.Flip(b)
				}
				if f.fx.Get(b) {
					f.fz.Flip(a)
				}
			}
		case OpSwap:
			for t := 0; t < len(op.Targets); t += 2 {
				a, b := op.Targets[t], op.Targets[t+1]
				xa, za := f.fx.Get(a), f.fz.Get(a)
				f.fx.Set(a, f.fx.Get(b))
				f.fz.Set(a, f.fz.Get(b))
				f.fx.Set(b, xa)
				f.fz.Set(b, za)
			}
		case OpM:
			p := op.Args[0]
			for _, q := range op.Targets {
				flip := f.fx.Get(q)
				if p > 0 && f.rng.Float64() < p {
					flip = !flip
				}
				f.flips = append(f.flips, flip)
			}
		case OpMR:
			p := op.Args[0]
			for _, q := range op.Targets {
				flip := f.fx.Get(q)
				if p > 0 && f.rng.Float64() < p {
					flip = !flip
				}
				f.flips = append(f.flips, flip)
				// Reset clears any frame difference on the qubit. Note the
				// classical flip above does NOT propagate into the reset
				// state (readout error is purely classical).
				f.fx.Set(q, false)
				f.fz.Set(q, false)
			}
		case OpR:
			for _, q := range op.Targets {
				f.fx.Set(q, false)
				f.fz.Set(q, false)
			}
		case OpDepolarize1:
			p := op.Args[0]
			for _, q := range op.Targets {
				if f.rng.Float64() < p {
					switch f.rng.Intn(3) {
					case 0:
						f.fx.Flip(q)
					case 1:
						f.fx.Flip(q)
						f.fz.Flip(q)
					default:
						f.fz.Flip(q)
					}
				}
			}
		case OpDepolarize2:
			p := op.Args[0]
			for t := 0; t < len(op.Targets); t += 2 {
				if f.rng.Float64() < p {
					// Uniform over the 15 non-identity two-qubit Paulis.
					k := 1 + f.rng.Intn(15)
					f.applyPauliCode(op.Targets[t], k&3)
					f.applyPauliCode(op.Targets[t+1], k>>2)
				}
			}
		case OpXError:
			for _, q := range op.Targets {
				if f.rng.Float64() < op.Args[0] {
					f.fx.Flip(q)
				}
			}
		case OpYError:
			for _, q := range op.Targets {
				if f.rng.Float64() < op.Args[0] {
					f.fx.Flip(q)
					f.fz.Flip(q)
				}
			}
		case OpZError:
			for _, q := range op.Targets {
				if f.rng.Float64() < op.Args[0] {
					f.fz.Flip(q)
				}
			}
		case OpPauliChannel1:
			px, py, pz := op.Args[0], op.Args[1], op.Args[2]
			for _, q := range op.Targets {
				u := f.rng.Float64()
				switch {
				case u < px:
					f.fx.Flip(q)
				case u < px+py:
					f.fx.Flip(q)
					f.fz.Flip(q)
				case u < px+py+pz:
					f.fz.Flip(q)
				}
			}
		case OpDetector:
			v := false
			for _, r := range op.Recs {
				if f.flips[len(f.flips)+r] {
					v = !v
				}
			}
			f.detectors[det] = v
			det++
		case OpObservable:
			for _, r := range op.Recs {
				if f.flips[len(f.flips)+r] {
					f.obs[op.Index] = !f.obs[op.Index]
				}
			}
		}
	}
	res := ShotResult{
		Detectors:        append([]bool(nil), f.detectors...),
		Observables:      append([]bool(nil), f.obs...),
		MeasurementFlips: append([]bool(nil), f.flips...),
	}
	return res
}

// applyPauliCode XORs Pauli code (0=I 1=X 2=Y 3=Z) into the frame at q.
func (f *FrameSampler) applyPauliCode(q, code int) {
	switch code {
	case 1:
		f.fx.Flip(q)
	case 2:
		f.fx.Flip(q)
		f.fz.Flip(q)
	case 3:
		f.fz.Flip(q)
	}
}
