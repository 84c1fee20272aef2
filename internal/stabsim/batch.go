package stabsim

import (
	"math"
	"slices"

	"hetarch/internal/obs"
	"hetarch/internal/splitmix"
)

// Batch sampling telemetry: one atomic add per 64-shot batch, invisible
// against the cost of replaying the circuit.
var (
	batchCount      = obs.C("stabsim.batches")
	batchShotsCount = obs.C("stabsim.batch_shots")
)

// Geometric-skip sampling. mask finds the set bits of a word whose bits are
// independently 1 with probability p by skipping error-free shots: a draw
// n, the 53 bits rng.Float64 would turn into u = n·2⁻⁵³, skips
// ⌊log(1−u)/log(1−p)⌋ shots (Gidney, arXiv:2103.02202). That gap never
// shrinks as n grows, so a table of the least draw reaching each gap, built
// once per probability, replaces the logarithm with integer compares.
const (
	drawBits    = 53                    // a draw is the top 53 bits of one RNG word
	drawLimit   = 1 << drawBits         // draws lie in [0, drawLimit)
	gapCap      = 64                    // a gap of 64 or more leaves the word
	bucketBits  = 12                    // 2^12 buckets of 2^41 draws each
	bucketShift = drawBits - bucketBits // a draw's bucket is n >> bucketShift
	bracket     = 4                     // draws searched either side of a threshold's estimate
)

// gapTable holds, for one probability p, the gap of every draw, capped at
// gapCap. Its thresholds come from bisection on the very expression the
// logarithmic sampler evaluated, int(math.Log(1-u) / math.Log1p(-p)), so a
// looked-up gap equals that expression's value, as long as the expression
// does not decrease as n grows (TestGapTableExact, FuzzGapTable).
type gapTable struct {
	p float64
	// anyN is ⌈(1 − (1−p)^64)·2^53⌉: a first draw n >= anyN leaves all 64
	// shots error-free, which is the logarithmic sampler's u >= 1 − q^64.
	anyN uint64
	// thr[k], k = 1..64, is the least draw whose gap is at least k, or
	// drawLimit if no draw's is; thr[0] = 0, and thr[65] = drawLimit stops
	// the walk in gap.
	thr [gapCap + 2]uint64
	// bucket[b] is the gap of draw b << bucketShift, the least of bucket b.
	bucket [1 << bucketBits]uint8
}

// build fills t for probability p, 0 < p < 1.
func (t *gapTable) build(p float64) {
	logq := math.Log1p(-p)
	t.p = p
	t.anyN = uint64(math.Ceil((1 - math.Exp(64*logq)) * 0x1p53))
	// reaches reports whether draw n's gap is at least k.
	reaches := func(n uint64, k int) bool {
		return n >= drawLimit || math.Log(1-float64(n)*0x1p-53)/logq >= float64(k)
	}
	for k := 1; k <= gapCap; k++ {
		lo, hi := t.thr[k-1], uint64(drawLimit)
		// The threshold in exact arithmetic, (1 − q^k)·2^53, is a few draws
		// from the computed one. Narrow the search to either side of it
		// where the expression confirms the bound.
		est := uint64(-math.Expm1(float64(k)*logq) * 0x1p53)
		if a := est - min(est, bracket); a >= lo && !reaches(a, k) {
			lo = a + 1
		}
		if b := est + bracket; b < hi && reaches(b, k) {
			hi = b
		}
		for lo < hi {
			mid := lo + (hi-lo)/2
			if reaches(mid, k) {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		t.thr[k] = lo
	}
	t.thr[gapCap+1] = drawLimit
	// Bucket b has gap g when thr[g] <= b << bucketShift < thr[g+1].
	b := 0
	for g := 0; g <= gapCap; g++ {
		for end := (t.thr[g+1] + 1<<bucketShift - 1) >> bucketShift; uint64(b) < end; b++ {
			t.bucket[b] = uint8(g)
		}
	}
}

// gap returns draw n's gap, capped at gapCap: the gap of n's bucket,
// stepped past the thresholds inside the bucket that n reaches. Buckets are
// narrow against the spacing of the thresholds, so the loop almost always
// makes one failed compare.
func (t *gapTable) gap(n uint64) int {
	g := int(t.bucket[n>>bucketShift])
	for n >= t.thr[g+1] {
		g++
	}
	return g
}

// maskParams is one op's event sampling state. Ops with the same
// probability share one gap table.
type maskParams struct {
	p    float64   // the op's event probability; 0 for an op without events
	gaps *gapTable // nil when p is 0 or 1: the word needs no draw
}

// mask draws a 64-bit word whose bits are independently 1 with the op's
// probability, consuming one draw plus one per set bit. The all-zero word,
// which dominates at the physical error rates of the evaluation sweeps,
// costs one draw and one compare.
func (m *maskParams) mask(rng *splitmix.RNG) uint64 {
	t := m.gaps
	if t == nil {
		if m.p >= 1 {
			return ^uint64(0)
		}
		return 0
	}
	n := rng.Uint64() >> (64 - drawBits)
	if n >= t.anyN {
		return 0
	}
	var w uint64
	for pos := t.gap(n); pos < gapCap; pos += 1 + t.gap(rng.Uint64()>>(64-drawBits)) {
		w |= 1 << uint(pos)
	}
	return w
}

// eventProbability is the probability that a noise op, or a measurement's
// readout flip, fires on one target; 0 for every other op.
func eventProbability(op *Op) float64 {
	switch op.Code {
	case OpM, OpMR, OpDepolarize1, OpDepolarize2, OpXError, OpYError, OpZError:
		return op.Args[0]
	case OpPauliChannel1:
		return op.Args[0] + op.Args[1] + op.Args[2]
	}
	return 0
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
	noise     []maskParams // per-op event sampling state (zero for ops without events)
}

// NewBatchFrameSampler prepares a bit-parallel sampler for the circuit. It
// makes four allocations whatever the circuit: the sampler, the per-op
// noise state, one slab of frame, record, detector and observable words,
// and one slab holding a gap table per distinct probability.
func NewBatchFrameSampler(c *Circuit, rng *splitmix.RNG) *BatchFrameSampler {
	b := &BatchFrameSampler{c: c, rng: rng}
	n, m, d := c.N, c.numMeasurements, c.numDetectors
	words := make([]uint64, 2*n+m+d+c.numObservables)
	b.fx, b.fz = words[:n:n], words[n:2*n:2*n]
	b.flips = words[2*n : 2*n : 2*n+m]
	b.detectors = words[2*n+m : 2*n+m+d : 2*n+m+d]
	b.obs = words[2*n+m+d:]
	b.noise = newMaskParams(len(c.Ops), func(i int) float64 { return eventProbability(&c.Ops[i]) })
	return b
}

// newMaskParams returns the sampling state of n event words, the i-th of
// probability p(i), in two allocations: the states and one slab holding a
// gap table per distinct probability strictly between 0 and 1.
func newMaskParams(n int, p func(i int) float64) []maskParams {
	noise := make([]maskParams, n)
	// noise[:k] first lists the distinct probabilities that need a table;
	// the loop after the build overwrites every entry.
	k := 0
	for i := range noise {
		pi := p(i)
		if pi > 0 && pi < 1 && !slices.ContainsFunc(noise[:k], func(m maskParams) bool { return m.p == pi }) {
			noise[k].p = pi
			k++
		}
	}
	tables := make([]gapTable, k)
	for j := range tables {
		tables[j].build(noise[j].p)
	}
	for i := range noise {
		pi := p(i)
		noise[i] = maskParams{p: pi}
		for j := range tables {
			if t := &tables[j]; t.p == pi {
				noise[i].gaps = t
				break
			}
		}
	}
	return noise
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
