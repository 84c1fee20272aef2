package decoder

import (
	"fmt"
	"testing"

	"hetarch/internal/qec"
	"hetarch/internal/splitmix"
)

// sectorGraph builds the space–time matching graph of one basis sector of a
// distance-d code over the given number of detector layers — the same shape
// internal/surface builds (time-like measurement edges, space-like data
// edges, boundary edges where a data qubit touches a single stabilizer,
// observable mask on the logical cut) without the import cycle that using
// surface.Experiment from this package would create.
func sectorGraph(d, layers int) *Graph {
	numStabs := d - 1
	g := &Graph{NumNodes: numStabs * layers}
	node := func(stab, layer int) int { return layer*numStabs + stab }
	for s := 0; s < numStabs; s++ {
		for r := 0; r+1 < layers; r++ {
			g.Edges = append(g.Edges, Edge{U: node(s, r), V: node(s, r+1)})
		}
	}
	for r := 0; r < layers; r++ {
		// Data qubit 0 crosses the logical cut and touches only stabilizer 0.
		g.Edges = append(g.Edges, Edge{U: node(0, r), V: Boundary, ObsMask: 1})
		for q := 1; q < d-1; q++ {
			g.Edges = append(g.Edges, Edge{U: node(q-1, r), V: node(q, r)})
		}
		g.Edges = append(g.Edges, Edge{U: node(numStabs-1, r), V: Boundary})
	}
	return g
}

// planarGraph builds the Z-basis sector of the distance-d rotated surface
// code over the given number of detector layers, the way internal/surface's
// buildGraph does: one node per (Z plaquette, layer), time-like edges
// between layers, one space edge per data qubit per layer (a boundary edge
// where the qubit has a single owning plaquette) and the observable mask on
// the qubits of LogicalZ. At d=13 and 14 layers it has 1,176 nodes and
// 3,458 edges, so both peel bitsets span many words.
func planarGraph(d, layers int) *Graph {
	code, layout := qec.Surface(d)
	plaq := layout.ZPlaquettes
	g := &Graph{NumNodes: len(plaq) * layers}
	node := func(stab, layer int) int { return layer*len(plaq) + stab }
	for s := range plaq {
		for r := 0; r+1 < layers; r++ {
			g.Edges = append(g.Edges, Edge{U: node(s, r), V: node(s, r+1)})
		}
	}
	owners := make([][]int, code.N)
	for s, qs := range plaq {
		for _, q := range qs {
			owners[q] = append(owners[q], s)
		}
	}
	for q, own := range owners {
		var obs uint64
		if code.LogicalZ.LetterAt(q) != 'I' {
			obs = 1
		}
		for r := 0; r < layers; r++ {
			switch len(own) {
			case 1:
				g.Edges = append(g.Edges, Edge{U: node(own[0], r), V: Boundary, ObsMask: obs})
			case 2:
				g.Edges = append(g.Edges, Edge{U: node(own[0], r), V: node(own[1], r), ObsMask: obs})
			}
		}
	}
	return g
}

// randomGraph builds an arbitrary matching graph: random pair edges, some
// boundary edges, random observable masks, possibly disconnected — the
// stress shape for the growth/peel equivalence.
func randomGraph(rng *splitmix.RNG, nodes, edges int) *Graph {
	g := &Graph{NumNodes: nodes}
	for i := 0; i < edges; i++ {
		u := int(rng.Uint64() % uint64(nodes))
		v := Boundary
		if rng.Float64() > 0.25 {
			v = int(rng.Uint64() % uint64(nodes))
			if v == u {
				v = Boundary
			}
		}
		g.Edges = append(g.Edges, Edge{U: u, V: v, ObsMask: rng.Uint64() & 3})
	}
	return g
}

// randomDefectWords fills words with random detector events at roughly the
// given per-detector probability, allocation-free.
func randomDefectWords(rng *splitmix.RNG, words []uint64, density int) {
	for i := range words {
		w := rng.Uint64()
		for k := 1; k < density; k++ {
			w &= rng.Uint64()
		}
		words[i] = w
	}
}

// TestSparseDecoderMatchesReference pins the rewritten sparse decoder to
// the historical dense implementation (reference_test.go) on 10k randomized
// shots per graph: every prediction must agree bit for bit, through both
// entry points (dense Decode and DecodeBatch) and with the decoder
// instance reused across shots so the epoch-stamped scratch is
// exercised the way the shard runners use it. The planar graph is the real
// d=13 surface-code sector: at ~147 defects per shot the peel seeds every
// tree-edge endpoint and both of its bitsets span many words, a regime the
// 1-D sector graphs never reach. Its dense reference is slow, so it runs
// fewer shots.
func TestSparseDecoderMatchesReference(t *testing.T) {
	rng := splitmix.New(11)
	planar := planarGraph(13, 14)
	if planar.NumNodes != 1176 || len(planar.Edges) != 3458 {
		t.Fatalf("planar d=13 graph has %d nodes and %d edges, want 1176 and 3458", planar.NumNodes, len(planar.Edges))
	}
	planarShots := 2048
	if testing.Short() {
		planarShots = 256
	}
	graphs := map[string]struct {
		g     *Graph
		shots int
	}{
		"sector-d5":  {sectorGraph(5, 6), 10000},
		"sector-d9":  {sectorGraph(9, 10), 10000},
		"sector-d13": {sectorGraph(13, 14), 10000},
		"random-32":  {randomGraph(rng, 32, 64), 10000},
		"random-7":   {randomGraph(rng, 7, 9), 10000},
		"planar-d13": {planar, planarShots},
	}
	for name, c := range graphs {
		t.Run(name, func(t *testing.T) {
			g := c.g
			ref := newRefUnionFind(g)
			u := NewUnionFind(g)
			words := make([]uint64, g.NumNodes)
			preds := make([]uint64, 64)
			dense := make([]bool, g.NumNodes)
			for done := 0; done < c.shots; done += 64 {
				randomDefectWords(rng, words, 3)
				u.DecodeBatch(words, 64, preds)
				for s := 0; s < 64; s++ {
					for d := range dense {
						dense[d] = words[d]>>uint(s)&1 == 1
					}
					want := ref.Decode(dense)
					if preds[s] != want {
						t.Fatalf("shot %d: DecodeBatch=%d reference=%d", done+s, preds[s], want)
					}
					if got := u.Decode(dense); got != want {
						t.Fatalf("shot %d: Decode=%d reference=%d", done+s, got, want)
					}
				}
			}
		})
	}
}

// TestSparseDecoderFreshVsReused guards the epoch reset: a long-lived
// decoder that has seen many shots must predict exactly like a freshly
// constructed one on the same pattern, and the peel-root bitsets, which
// are not epoch-stamped, must be empty again after every batch.
func TestSparseDecoderFreshVsReused(t *testing.T) {
	g := sectorGraph(7, 8)
	rng := splitmix.New(5)
	aged := NewUnionFind(g)
	words := make([]uint64, g.NumNodes)
	preds := make([]uint64, 64)
	bitsetsEmpty := func(u *UnionFind, batch int) {
		t.Helper()
		for name, set := range map[string][]uint64{"seedEdges": u.seedEdges, "rootNodes": u.rootNodes} {
			for wi, w := range set {
				if w != 0 {
					t.Fatalf("batch %d: %s word %d = %#x after decode, want 0", batch, name, wi, w)
				}
			}
		}
	}
	for i := 0; i < 64; i++ {
		randomDefectWords(rng, words, 2)
		aged.DecodeBatch(words, 64, preds)
		bitsetsEmpty(aged, i)
	}
	for i := 0; i < 16; i++ {
		randomDefectWords(rng, words, 2)
		aged.DecodeBatch(words, 64, preds)
		bitsetsEmpty(aged, 64+i)
		fresh := NewUnionFind(g)
		fpreds := make([]uint64, 64)
		fresh.DecodeBatch(words, 64, fpreds)
		bitsetsEmpty(fresh, 64+i)
		for s := 0; s < 64; s++ {
			if preds[s] != fpreds[s] {
				t.Fatalf("batch %d shot %d: aged=%d fresh=%d", i, s, preds[s], fpreds[s])
			}
		}
	}
}

// TestDecodeSteadyStateZeroAllocs is the allocation gate for the decoder
// core: after warm-up, decoding allocates nothing — per 64-shot batch and
// per dense Decode — on sector graphs from d=5 to d=13 and
// on the planar d=13 surface-code graph. The measured runs replay the
// warm-up's RNG stream, so arena capacities are provably at their
// high-water mark when counting starts. The planar graph's ~147-defect
// shots are slow under -race, so it measures fewer runs.
func TestDecodeSteadyStateZeroAllocs(t *testing.T) {
	type allocCase struct {
		name string
		seed int64
		runs int
		g    *Graph
	}
	var cases []allocCase
	for d := 5; d <= 13; d += 2 {
		cases = append(cases, allocCase{fmt.Sprintf("sector d=%d", d), int64(d), 64, sectorGraph(d, d+1)})
	}
	cases = append(cases, allocCase{"planar d=13", 113, 8, planarGraph(13, 14)})
	for _, c := range cases {
		g := c.g
		u := NewUnionFind(g)
		words := make([]uint64, g.NumNodes)
		preds := make([]uint64, 64)
		dense := make([]bool, g.NumNodes)
		defects := 0

		batch := func() {
			randomDefectWords(splitmixShared, words, 3)
			u.DecodeBatch(words, 64, preds)
		}
		one := func() {
			randomDefectWords(splitmixShared, words, 3)
			for i := range dense {
				dense[i] = words[i]&1 == 1
				if dense[i] {
					defects++
				}
			}
			u.Decode(dense)
		}

		splitmixShared.Seed(c.seed)
		for i := 0; i < c.runs+1; i++ {
			batch()
		}
		splitmixShared.Seed(c.seed)
		if avg := testing.AllocsPerRun(c.runs, batch); avg != 0 {
			t.Errorf("%s: DecodeBatch allocates %.2f per 64-shot batch, want 0", c.name, avg)
		}

		splitmixShared.Seed(c.seed + 100)
		for i := 0; i < c.runs+1; i++ {
			one()
		}
		splitmixShared.Seed(c.seed + 100)
		if avg := testing.AllocsPerRun(c.runs, one); avg != 0 {
			t.Errorf("%s: Decode allocates %.2f per shot, want 0", c.name, avg)
		}
	}
}

// splitmixShared backs the allocation tests: package-level so the measured
// closures draw randomness without capturing a fresh generator (and without
// any allocation attributable to the run itself).
var splitmixShared = splitmix.New(1)
