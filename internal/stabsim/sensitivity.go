package stabsim

import (
	"fmt"
	"math/bits"

	"hetarch/internal/splitmix"
)

// Sensitivities is a circuit compiled into its noise sites: the places
// where BatchFrameSampler.SampleBatch draws an event word, in the order it
// draws them, each with the detectors and observables an event there
// flips. A site is a noise op's target (a pair for Depolarize2) or a
// noisy measurement's readout flip; ops whose event probability is 0 draw
// nothing and have none.
//
// The flipped signals of a site are packed into one word, detector i at
// bit i and observable j at bit NumDetectors+j, so only circuits with at
// most 64 detectors plus observables compile. Frame propagation is linear
// over GF(2): a shot's detector and observable flips are the XOR of the
// words of the events it draws, which is what SensitivitySampler samples.
// A Sensitivities is read-only once compiled and may be shared by any
// number of samplers.
type Sensitivities struct {
	sites []site
}

// site is one noise site. The op's code picks the per-event draw.
type site struct {
	code OpCode
	p    float64 // event probability, > 0
	// x and z are the words an X and a Z event on the site's (first)
	// qubit flip; a readout flip flips x. x2 and z2 are the second
	// qubit's, for a Depolarize2 pair.
	x, z, x2, z2 uint64
	// px and pxy split a PauliChannel1 draw u·total as SampleBatch does:
	// an X component when u < pxy, a Z component when u >= px.
	px, pxy, total float64
}

// CompileSensitivities compiles c into its noise sites with one forward
// pass, which gives each measurement record the word of the detectors and
// observables that read it, and one reverse sweep of per-qubit X and Z
// sensitivities: the word an X or a Z error at that point of the circuit
// flips (Gidney, arXiv:2103.02202). Walking back over an op applies the
// transpose of its frame update: H swaps the two words, S and S† XOR Z
// into X, CX, CZ and SWAP transpose theirs with the pairs taken in
// reverse, M XORs its record's word into X, MR sets X to it and clears Z,
// and R clears both. It returns an error when c has more than 64
// detectors plus observables.
func CompileSensitivities(c *Circuit) (*Sensitivities, error) {
	nd := c.numDetectors
	if nd+c.numObservables > 64 {
		return nil, fmt.Errorf("stabsim: %d detectors and %d observables do not fit a 64-bit shot word", nd, c.numObservables)
	}
	recs := make([]uint64, c.numMeasurements)
	m, det, n := 0, 0, 0
	for i := range c.Ops {
		op := &c.Ops[i]
		switch op.Code {
		case OpM, OpMR:
			m += len(op.Targets)
		case OpDetector:
			for _, r := range op.Recs {
				recs[m+r] ^= 1 << uint(det)
			}
			det++
		case OpObservable:
			for _, r := range op.Recs {
				recs[m+r] ^= 1 << uint(nd+op.Index)
			}
		}
		if eventProbability(op) > 0 {
			k := len(op.Targets)
			if op.Code == OpDepolarize2 {
				k /= 2
			}
			n += k
		}
	}

	s := &Sensitivities{sites: make([]site, n)}
	words := make([]uint64, 2*c.N)
	sx, sz := words[:c.N], words[c.N:]
	// Sites are filled from the back, targets and pairs in reverse.
	add := func(st site) {
		n--
		s.sites[n] = st
	}
	for i := len(c.Ops) - 1; i >= 0; i-- {
		op := &c.Ops[i]
		ts := op.Targets
		p := eventProbability(op)
		switch op.Code {
		case OpH:
			for _, q := range ts {
				sx[q], sz[q] = sz[q], sx[q]
			}
		case OpS, OpSDag:
			for _, q := range ts {
				sx[q] ^= sz[q]
			}
		case OpCX:
			for t := len(ts) - 2; t >= 0; t -= 2 {
				cq, tq := ts[t], ts[t+1]
				sx[cq] ^= sx[tq]
				sz[tq] ^= sz[cq]
			}
		case OpCZ:
			for t := len(ts) - 2; t >= 0; t -= 2 {
				aq, bq := ts[t], ts[t+1]
				sx[aq] ^= sz[bq]
				sx[bq] ^= sz[aq]
			}
		case OpSwap:
			for t := len(ts) - 2; t >= 0; t -= 2 {
				aq, bq := ts[t], ts[t+1]
				sx[aq], sx[bq] = sx[bq], sx[aq]
				sz[aq], sz[bq] = sz[bq], sz[aq]
			}
		case OpM, OpMR:
			for t := len(ts) - 1; t >= 0; t-- {
				m--
				if p > 0 {
					add(site{code: op.Code, p: p, x: recs[m]})
				}
				if q := ts[t]; op.Code == OpM {
					sx[q] ^= recs[m]
				} else {
					sx[q], sz[q] = recs[m], 0
				}
			}
		case OpR:
			for _, q := range ts {
				sx[q], sz[q] = 0, 0
			}
		case OpDepolarize2:
			for t := len(ts) - 2; t >= 0 && p > 0; t -= 2 {
				aq, bq := ts[t], ts[t+1]
				add(site{code: op.Code, p: p, x: sx[aq], z: sz[aq], x2: sx[bq], z2: sz[bq]})
			}
		case OpDepolarize1, OpXError, OpYError, OpZError, OpPauliChannel1:
			st := site{code: op.Code, p: p}
			if op.Code == OpPauliChannel1 {
				// The same sums, in the same order, as SampleBatch's.
				px, py, pz := op.Args[0], op.Args[1], op.Args[2]
				st.px, st.pxy, st.total = px, px+py, px+py+pz
			}
			for t := len(ts) - 1; t >= 0 && p > 0; t-- {
				st.x, st.z = sx[ts[t]], sz[ts[t]]
				add(st)
			}
		}
	}
	return s, nil
}

// SensitivitySampler samples 64 shots at a time from compiled noise sites.
// It draws each site's event word with the batch sampler's mask code and,
// per event, exactly the Intn(3), Intn(15) or Float64 draw SampleBatch
// makes there, then XORs the event's word into its shot. Every draw keeps
// its order and arguments, so from identically seeded generators the 64
// shot words equal the transpose of SampleBatch's detector and observable
// words bit for bit, and the generator ends each batch in the same state.
type SensitivitySampler struct {
	sites []site
	noise []maskParams // per-site event sampling state
	rng   *splitmix.RNG
	shots [64]uint64
}

// NewSensitivitySampler prepares a sampler over s. It makes three
// allocations whatever the circuit: the sampler, the per-site noise state
// and one slab holding a gap table per distinct probability. The gap
// tables are the sampler's own, so each worker builds its own sampler.
func NewSensitivitySampler(s *Sensitivities, rng *splitmix.RNG) *SensitivitySampler {
	return &SensitivitySampler{
		sites: s.sites,
		noise: newMaskParams(len(s.sites), func(i int) float64 { return s.sites[i].p }),
		rng:   rng,
	}
}

// SampleBatch samples 64 shots and returns their words: bit i of word s is
// detector i's event in shot s, and bit NumDetectors()+j of the circuit
// observable j's flip. The array is the sampler's own and is overwritten by the next
// call. Sampling is allocation-free.
func (s *SensitivitySampler) SampleBatch() *[64]uint64 {
	batchCount.Inc()
	batchShotsCount.Add(64)
	s.shots = [64]uint64{}
	for i := range s.sites {
		events := s.noise[i].mask(s.rng)
		if events == 0 {
			continue
		}
		st := &s.sites[i]
		switch st.code {
		case OpM, OpMR, OpXError, OpYError, OpZError:
			w := st.x
			switch st.code {
			case OpYError:
				w ^= st.z
			case OpZError:
				w = st.z
			}
			for ; events != 0; events &= events - 1 {
				s.shots[bits.TrailingZeros64(events)] ^= w
			}
		case OpDepolarize1:
			// r = 0, 1, 2 is X, Y, Z, as in applySparsePauli.
			for ; events != 0; events &= events - 1 {
				r := s.rng.Intn(3)
				s.shots[bits.TrailingZeros64(events)] ^= st.x&-b2u(r < 2) ^ st.z&-b2u(r > 0)
			}
		case OpDepolarize2:
			for ; events != 0; events &= events - 1 {
				k := uint64(1 + s.rng.Intn(15))
				ax, az := pauliBits(k & 3)
				bx, bz := pauliBits(k >> 2)
				s.shots[bits.TrailingZeros64(events)] ^= st.x&-ax ^ st.z&-az ^ st.x2&-bx ^ st.z2&-bz
			}
		case OpPauliChannel1:
			for ; events != 0; events &= events - 1 {
				u := s.rng.Float64() * st.total
				s.shots[bits.TrailingZeros64(events)] ^= st.x&-b2u(u < st.pxy) ^ st.z&-b2u(u >= st.px)
			}
		}
	}
	return &s.shots
}
