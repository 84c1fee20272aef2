package stabsim

import (
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"hetarch/internal/splitmix"
)

// maskFor returns the sampling state NewBatchFrameSampler gives an op
// whose event probability is p.
func maskFor(p float64) maskParams {
	return NewBatchFrameSampler(NewCircuit(1).MFlip(p, 0), nil).noise[0]
}

func TestBernoulliMaskExtremes(t *testing.T) {
	rng := splitmix.New(1)
	zero, one := maskFor(0), maskFor(1)
	if zero.mask(rng) != 0 {
		t.Fatal("p=0 should give empty mask")
	}
	if one.mask(rng) != ^uint64(0) {
		t.Fatal("p=1 should give full mask")
	}
	if rng.Uint64() != splitmix.New(1).Uint64() {
		t.Fatal("p=0 and p=1 should draw nothing")
	}
}

func TestBernoulliMaskStatistics(t *testing.T) {
	rng := splitmix.New(2)
	for _, p := range []float64{0.01, 0.1, 0.5, 0.9} {
		m := maskFor(p)
		total := 0
		samples := 4000
		for i := 0; i < samples; i++ {
			total += bits.OnesCount64(m.mask(rng))
		}
		got := float64(total) / float64(samples*64)
		if math.Abs(got-p) > 0.01+p*0.05 {
			t.Fatalf("p=%v: measured %v", p, got)
		}
	}
}

func TestBatchDeterministicError(t *testing.T) {
	c := NewCircuit(1)
	c.XError(1.0, 0).M(0).Detector(-1)
	bs := NewBatchFrameSampler(c, splitmix.New(1))
	res := bs.SampleBatch()
	if res.Detectors[0] != ^uint64(0) {
		t.Fatalf("certain error should fire in every shot: %x", res.Detectors[0])
	}
}

func TestBatchNoiselessQuiet(t *testing.T) {
	c := NewCircuit(3)
	c.H(0).CX(0, 1).CX(1, 2).M(0, 1, 2)
	c.Detector(-1, -2).Detector(-2, -3)
	bs := NewBatchFrameSampler(c, splitmix.New(1))
	res := bs.SampleBatch()
	for i, d := range res.Detectors {
		if d != 0 {
			t.Fatalf("noiseless detector %d fired: %x", i, d)
		}
	}
}

func TestBatchMatchesScalarRates(t *testing.T) {
	c := repCodeCircuit(0.08, 2)
	batches := 120 // 7680 shots
	bs := NewBatchFrameSampler(c, splitmix.New(3))
	counts := make([]int, c.NumDetectors())
	obsCount := 0
	for i := 0; i < batches; i++ {
		res := bs.SampleBatch()
		for d, w := range res.Detectors {
			counts[d] += bits.OnesCount64(w)
		}
		obsCount += bits.OnesCount64(res.Observables[0])
	}
	shots := batches * 64
	scalarShots := 6000
	fs := NewFrameSampler(c, rand.New(rand.NewSource(4)))
	scalarCounts := make([]int, c.NumDetectors())
	scalarObs := 0
	for i := 0; i < scalarShots; i++ {
		res := fs.Sample()
		for d, v := range res.Detectors {
			if v {
				scalarCounts[d]++
			}
		}
		if res.Observables[0] {
			scalarObs++
		}
	}
	for d := range counts {
		batchRate := float64(counts[d]) / float64(shots)
		scalarRate := float64(scalarCounts[d]) / float64(scalarShots)
		if math.Abs(batchRate-scalarRate) > 0.03 {
			t.Fatalf("detector %d: batch %.3f vs scalar %.3f", d, batchRate, scalarRate)
		}
	}
	if math.Abs(float64(obsCount)/float64(shots)-float64(scalarObs)/float64(scalarShots)) > 0.03 {
		t.Fatal("observable rates disagree")
	}
}

func TestBatchGateConventionsMatchScalar(t *testing.T) {
	// Deterministic error propagation through every gate type must agree
	// bit-for-bit with the scalar sampler.
	build := func() *Circuit {
		c := NewCircuit(3)
		c.XError(1.0, 0)
		c.ZError(1.0, 2)
		c.H(0)       // X->Z on 0
		c.S(0)       // Z unchanged
		c.H(0)       // back to X
		c.CX(0, 1)   // X copies to 1
		c.CZ(1, 2)   // X on 1 adds Z on 2 (cancels existing Z), X on...
		c.Swap(0, 2) // swap frames
		c.M(0, 1, 2)
		c.Detector(-3)
		c.Detector(-2)
		c.Detector(-1)
		return c
	}
	fs := NewFrameSampler(build(), rand.New(rand.NewSource(1)))
	sres := fs.Sample()
	bs := NewBatchFrameSampler(build(), splitmix.New(1))
	bres := bs.SampleBatch()
	for d := range sres.Detectors {
		want := uint64(0)
		if sres.Detectors[d] {
			want = ^uint64(0)
		}
		if bres.Detectors[d] != want {
			t.Fatalf("detector %d: scalar %v batch %x", d, sres.Detectors[d], bres.Detectors[d])
		}
	}
}

func TestBatchMRClears(t *testing.T) {
	c := NewCircuit(1)
	c.XError(1.0, 0).MR(0, 0).M(0).Detector(-1)
	bs := NewBatchFrameSampler(c, splitmix.New(1))
	if res := bs.SampleBatch(); res.Detectors[0] != 0 {
		t.Fatal("MR should clear the frame in every shot")
	}
}

// circuitFromBytes decodes data into a circuit over 1..8 qubits that uses
// every op the batch sampler accepts: a qubit count, then one record per
// op, an op byte followed by target and probability bytes. Every byte
// string maps to a valid circuit. Probabilities come from whole bytes, so
// p = 1 (the degenerate full mask) and, for PauliChannel1, exact zero
// components are common.
func circuitFromBytes(data []byte) *Circuit {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		v := int(data[0])
		data = data[1:]
		return v
	}
	n := 1 + next()%8
	c := NewCircuit(n)
	targets := func() []int {
		qs := make([]int, 1+next()%3)
		for i := range qs {
			qs[i] = next() % n
		}
		return qs
	}
	pairs := func() []int {
		var qs []int
		for i := 1 + next()%2; i > 0; i-- {
			a := next() % n
			qs = append(qs, a, (a+1+next()%(n-1))%n)
		}
		return qs
	}
	prob := func() float64 { return float64(next()) / 255 }
	// component is 0 for a quarter of the bytes; three of them sum to < 1.
	component := func() float64 {
		v := next()
		if v%4 == 0 {
			return 0
		}
		return float64(v) / 768
	}
	for ops := 0; len(data) > 0 && ops < 96; ops++ {
		switch op := next() % 21; {
		case op < 6:
			switch op {
			case 0:
				c.H(targets()...)
			case 1:
				c.S(targets()...)
			case 2:
				c.SDag(targets()...)
			case 3:
				c.X(targets()...)
			case 4:
				c.Y(targets()...)
			default:
				c.Z(targets()...)
			}
		case op < 9:
			if n < 2 {
				continue
			}
			switch op {
			case 6:
				c.CX(pairs()...)
			case 7:
				c.CZ(pairs()...)
			default:
				c.Swap(pairs()...)
			}
		case op == 9:
			c.MFlip(prob()/2, targets()...)
		case op == 10:
			c.MR(prob()/2, targets()...)
		case op == 11:
			c.R(targets()...)
		case op == 12:
			c.Depolarize1(prob(), targets()...)
		case op == 13:
			// Pairs may repeat a qubit: Depolarize2 accepts them.
			qs := make([]int, 2+2*(next()%2))
			for i := range qs {
				qs[i] = next() % n
			}
			c.Depolarize2(prob(), qs...)
		case op == 14:
			c.XError(prob(), targets()...)
		case op == 15:
			c.YError(prob(), targets()...)
		case op == 16:
			c.ZError(prob(), targets()...)
		case op == 17:
			c.PauliChannel1(component(), component(), component(), targets()...)
		case op == 18 || op == 19:
			if c.NumMeasurements() == 0 {
				continue
			}
			recs := make([]int, 1+next()%3)
			for i := range recs {
				recs[i] = -1 - next()%c.NumMeasurements()
			}
			if op == 18 {
				c.Detector(recs...)
			} else {
				c.Observable(next()%2, recs...)
			}
		default:
			c.Tick()
		}
	}
	return c
}

// compareWithReference samples batches of c with SampleBatch and with the
// verbatim referenceSampleBatch from identically seeded generators, and
// fails on the first detector, observable or frame word that differs.
func compareWithReference(t *testing.T, c *Circuit, seed int64, batches int) {
	t.Helper()
	got := NewBatchFrameSampler(c, splitmix.New(seed))
	want := NewBatchFrameSampler(c, splitmix.New(seed))
	noise := referenceNoise(c)
	for i := 0; i < batches; i++ {
		g, w := got.SampleBatch(), want.referenceSampleBatch(noise)
		switch {
		case !slices.Equal(g.Detectors, w.Detectors):
			t.Fatalf("batch %d: detectors %x, reference %x", i, g.Detectors, w.Detectors)
		case !slices.Equal(g.Observables, w.Observables):
			t.Fatalf("batch %d: observables %x, reference %x", i, g.Observables, w.Observables)
		case !slices.Equal(got.fx, want.fx) || !slices.Equal(got.fz, want.fz):
			t.Fatalf("batch %d: frame X %x Z %x, reference X %x Z %x", i, got.fx, got.fz, want.fx, want.fz)
		}
	}
}

// TestBatchSamplerMatchesReference compares SampleBatch with the verbatim
// reference word for word on 200 random circuits of 50 batches each (10^4
// batches), and checks that the circuits exercised PauliChannel1 with a
// zero component, Depolarize1, Depolarize2, M and MR.
func TestBatchSamplerMatchesReference(t *testing.T) {
	rng := splitmix.New(22)
	seen := map[OpCode]bool{}
	zeroComponent := false
	for i := 0; i < 200; i++ {
		data := make([]byte, 64+rng.Intn(256))
		for j := range data {
			data[j] = byte(rng.Uint64())
		}
		c := circuitFromBytes(data)
		for _, op := range c.Ops {
			seen[op.Code] = true
			if op.Code == OpPauliChannel1 && slices.Contains(op.Args, 0) {
				zeroComponent = true
			}
		}
		compareWithReference(t, c, rng.Int63(), 50)
	}
	for _, code := range []OpCode{OpPauliChannel1, OpDepolarize1, OpDepolarize2, OpM, OpMR} {
		if !seen[code] {
			t.Errorf("no circuit used op %d", code)
		}
	}
	if !zeroComponent {
		t.Error("no circuit used a PauliChannel1 with a zero component")
	}
}

// FuzzBatchSampler drives SampleBatch and the verbatim reference over
// fuzzer-built circuits: the first eight bytes seed the generator, the
// rest build the circuit, and four batches must agree word for word.
func FuzzBatchSampler(f *testing.F) {
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 0, 3, 17, 2, 5, 100, 200, 7, 9, 1, 0, 18, 0, 0})
	f.Add([]byte{9, 9, 9, 9, 9, 9, 9, 9, 7, 12, 2, 1, 2, 3, 128, 13, 1, 0, 1, 2, 3, 255, 10, 2, 0, 1, 2, 60, 18, 2, 0, 1, 2})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 2, 4, 17, 1, 0, 4, 0, 200, 0, 6, 0, 1, 2, 9, 1, 0, 3, 19, 0, 1, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		var seed int64
		for i := 0; i < 8 && len(data) > 0; i++ {
			seed = seed<<8 | int64(data[0])
			data = data[1:]
		}
		compareWithReference(t, circuitFromBytes(data), seed, 4)
	})
}
