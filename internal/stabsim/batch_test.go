package stabsim

import (
	"math"
	"math/bits"
	"math/rand"
	"testing"

	"hetarch/internal/splitmix"
)

func TestBernoulliMaskExtremes(t *testing.T) {
	rng := splitmix.New(1)
	zero, one := newMaskParams(0), newMaskParams(1)
	if zero.mask(rng) != 0 {
		t.Fatal("p=0 should give empty mask")
	}
	if one.mask(rng) != ^uint64(0) {
		t.Fatal("p=1 should give full mask")
	}
}

func TestBernoulliMaskStatistics(t *testing.T) {
	rng := splitmix.New(2)
	for _, p := range []float64{0.01, 0.1, 0.5, 0.9} {
		m := newMaskParams(p)
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

// TestForEachDetectorBit pins the sparse iterator against a dense scan of
// the same words: every fired (detector, shot) pair exactly once, in
// detector-major shot-minor order.
func TestForEachDetectorBit(t *testing.T) {
	rng := splitmix.New(4)
	words := make([]uint64, 9)
	for i := range words {
		words[i] = rng.Uint64() & rng.Uint64() & rng.Uint64() // sparse-ish
	}
	words[3] = 0 // empty word must be skipped wholesale
	res := BatchResult{Detectors: words}

	var got [][2]int
	res.ForEachDetectorBit(func(d, s int) { got = append(got, [2]int{d, s}) })

	var want [][2]int
	for d, w := range words {
		for s := 0; s < 64; s++ {
			if w>>uint(s)&1 == 1 {
				want = append(want, [2]int{d, s})
			}
		}
	}
	if len(got) != len(want) {
		t.Fatalf("iterator visited %d pairs, dense scan %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pair %d: iterator %v, dense scan %v", i, got[i], want[i])
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
