package stabsim

// referenceSampleBatch is SampleBatch as it stood before its Pauli events
// were applied without data-dependent branches, kept verbatim as the
// oracle for that rewrite: each event takes a three-way switch on its
// draw and XORs its shot bit into the frame at once. The rewrite must
// reproduce its detector, observable and frame words bit for bit
// (TestBatchSamplerMatchesReference, FuzzBatchSampler). Only the three
// method names differ from the original.
func (b *BatchFrameSampler) referenceSampleBatch() BatchResult {
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
				b.referenceApplySparsePauli(q, b.noise[i].mask(b.rng))
			}
		case OpDepolarize2:
			for t := 0; t < len(op.Targets); t += 2 {
				events := b.noise[i].mask(b.rng)
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
