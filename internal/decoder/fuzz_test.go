package decoder

import (
	"testing"
)

// decodeFuzzGraph builds a matching graph from raw fuzz bytes: a node
// count, then 3-byte edge records (U, V-or-boundary, observable-mask bits).
// Every byte string maps to a valid graph, so the fuzzer explores shapes —
// multi-edges, boundary-heavy nodes, disconnected islands — no generator
// written by hand would. Up to 255 nodes and 320 edges, so the peel's node
// and edge bitsets span several 64-bit words.
func decodeFuzzGraph(data []byte) (*Graph, []byte) {
	if len(data) < 1 {
		return nil, nil
	}
	n := int(data[0])%254 + 2
	data = data[1:]
	g := &Graph{NumNodes: n}
	for len(data) >= 3 && len(g.Edges) < 320 {
		u := int(data[0]) % n
		v := int(data[1]) % (n + 1)
		e := Edge{U: u, V: v, ObsMask: uint64(data[2] & 3)}
		if v == n || v == u {
			e.V = Boundary
		}
		g.Edges = append(g.Edges, e)
		data = data[3:]
	}
	return g, data
}

// fuzzDefects reads a defect bitmap for n nodes from the remaining bytes.
func fuzzDefects(data []byte, n int) []bool {
	defects := make([]bool, n)
	for i := 0; i < n; i++ {
		if i/8 < len(data) && data[i/8]>>(uint(i)%8)&1 == 1 {
			defects[i] = true
		}
	}
	return defects
}

// checkSyndrome validates a correction against the defects it was decoded
// from: XORing the corrected edges' endpoints must reproduce the defect
// pattern on every connected component the decoder can actually resolve
// (components with boundary access or an even defect count). Odd-parity
// components with no path to the boundary legitimately strand a defect —
// the growth loop's stall exit — and are excluded.
func checkSyndrome(t *testing.T, g *Graph, defects []bool, correction []int) {
	t.Helper()
	syndrome := make([]bool, g.NumNodes)
	for _, ei := range correction {
		e := g.Edges[ei]
		syndrome[e.U] = !syndrome[e.U]
		if e.V != Boundary {
			syndrome[e.V] = !syndrome[e.V]
		}
	}

	// Connected components over all edges, tracking boundary access.
	comp := make([]int, g.NumNodes)
	for i := range comp {
		comp[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for comp[x] != x {
			comp[x] = comp[comp[x]]
			x = comp[x]
		}
		return x
	}
	hasBoundary := make([]bool, g.NumNodes)
	for _, e := range g.Edges {
		if e.V == Boundary {
			hasBoundary[find(e.U)] = true
		} else {
			ra, rb := find(e.U), find(e.V)
			if ra != rb {
				comp[rb] = ra
				hasBoundary[ra] = hasBoundary[ra] || hasBoundary[rb]
			}
		}
	}
	defectCount := make(map[int]int)
	for i, d := range defects {
		if d {
			defectCount[find(i)]++
		}
	}
	for i := 0; i < g.NumNodes; i++ {
		r := find(i)
		if defectCount[r]%2 == 1 && !hasBoundary[r] {
			continue // stranded component, decoder failure is legitimate
		}
		if syndrome[i] != defects[i] {
			t.Errorf("node %d: correction syndrome %v, defect %v", i, syndrome[i], defects[i])
		}
	}
}

// FuzzUnionFindDecode drives the sparse decoder over fuzzer-built graphs
// and defect patterns: no panics, predictions bit-identical to the
// historical dense reference through every entry point, the reference's
// correction syndrome-consistent on resolvable components, and no state
// leakage across decodes on a reused instance.
func FuzzUnionFindDecode(f *testing.F) {
	// Seeds: surface-code-shaped sector graphs (time chains + boundary
	// columns) and small pathological shapes.
	sector := func(d, layers int) []byte {
		g := sectorGraph(d, layers)
		data := []byte{byte(g.NumNodes - 2)}
		for _, e := range g.Edges {
			v := e.V
			if v == Boundary {
				v = g.NumNodes
			}
			data = append(data, byte(e.U), byte(v), byte(e.ObsMask))
		}
		// Alternating defect bitmap tail.
		for i := 0; i < (g.NumNodes+7)/8; i++ {
			data = append(data, 0xa5)
		}
		return data
	}
	f.Add(sector(3, 4))
	f.Add(sector(5, 6))
	f.Add([]byte{0})                                  // minimal graph, no edges
	f.Add([]byte{1, 0, 1, 3, 0, 1, 3, 1, 2, 0, 0xff}) // multi-edges + defects
	f.Add([]byte{6, 0, 8, 1, 2, 3, 0, 4, 4, 2, 0x55, 0x55})

	f.Fuzz(func(t *testing.T, data []byte) {
		g, rest := decodeFuzzGraph(data)
		if g == nil {
			return
		}
		defects := fuzzDefects(rest, g.NumNodes)

		ref := newRefUnionFind(g)
		u := NewUnionFind(g)

		want := ref.Decode(defects)
		checkSyndrome(t, g, defects, ref.correction)
		if got := u.Decode(defects); got != want {
			t.Fatalf("Decode=%d reference=%d", got, want)
		}

		// Packed entry point, shot 0 carrying the same pattern.
		words := make([]uint64, g.NumNodes)
		for i, d := range defects {
			if d {
				words[i] = 1
			}
		}
		preds := make([]uint64, 1)
		u.DecodeBatch(words, 1, preds)
		if preds[0] != want {
			t.Fatalf("DecodeBatch=%d reference=%d", preds[0], want)
		}

		// Reuse: decode the complement on the same instance, then the
		// original again — the epoch scheme must not leak state between
		// patterns.
		inverted := make([]bool, len(defects))
		for i, d := range defects {
			inverted[i] = !d
		}
		wantInv := ref.Decode(inverted)
		checkSyndrome(t, g, inverted, ref.correction)
		if got := u.Decode(inverted); got != wantInv {
			t.Fatalf("inverted: Decode=%d reference=%d", got, wantInv)
		}
		if got := u.Decode(defects); got != want {
			t.Fatalf("re-decode: Decode=%d reference=%d", got, want)
		}
	})
}
