// Package decoder implements the two decoders used by the HetArch
// experiments: an exact minimum-weight lookup decoder for small codes
// (Steane, Reed–Muller, color, small surface codes) and a union–find decoder
// for space–time detector graphs of larger surface codes. Both serve the
// error-corrected memory modules of the paper's Section 4.2 (surface-code
// memory and universal error correction), whose logical-error rates the
// evaluation section sweeps.
package decoder

import (
	"fmt"
	"math/bits"

	"hetarch/internal/obs"
)

// lookupDecodes counts Lookup.Decode invocations across all tables — one
// atomic add per call. The uec shard runner reads LogicalParity bitsets
// and never calls Decode, so a uec run leaves it at 0; the calls it counts
// come from the facade's lookup decoder, tests and the benchmark's traced
// uec replica.
var lookupDecodes = obs.C("decoder.lookup.decodes")

// Lookup is a minimum-weight decoder for one error sector of a CSS code:
// it maps a syndrome (bitmask over the opposite-type stabilizers) to the
// minimum-weight data-error support producing that syndrome. It is not
// maximum-likelihood: it picks one lowest-weight error per syndrome and
// ignores degeneracy, so it does not sum the probabilities of the errors
// that differ by a stabilizer and compare logical classes.
type Lookup struct {
	n          int
	checkMasks []uint64 // stabilizer supports that detect this error type
	table      map[uint64]uint64
}

// NewLookup builds the table by breadth-first enumeration of error supports
// in increasing weight until every reachable syndrome has an entry.
// checkMasks are the supports of the stabilizers that anticommute with this
// error type (e.g. Z-stabilizer supports when decoding X errors).
func NewLookup(n int, checkMasks []uint64) *Lookup {
	if n <= 0 || n > 64 {
		panic(fmt.Sprintf("decoder: lookup supports 1..64 qubits, got %d", n))
	}
	l := &Lookup{n: n, checkMasks: checkMasks, table: map[uint64]uint64{0: 0}}
	total := uint64(1) << uint(len(checkMasks))
	// Enumerate supports by weight. The syndrome map is linear over error
	// XOR, and every syndrome is reachable (checks are independent), so the
	// loop terminates at or before weight n.
	for w := 1; uint64(len(l.table)) < total && w <= n; w++ {
		enumerateCombinations(n, w, func(mask uint64) {
			s := l.Syndrome(mask)
			if _, ok := l.table[s]; !ok {
				l.table[s] = mask
			}
		})
	}
	return l
}

// Syndrome computes the syndrome bitmask of an error support.
func (l *Lookup) Syndrome(errMask uint64) uint64 {
	var s uint64
	for i, m := range l.checkMasks {
		if bits.OnesCount64(errMask&m)%2 == 1 {
			s |= 1 << uint(i)
		}
	}
	return s
}

// Decode returns the minimum-weight correction support for the syndrome.
func (l *Lookup) Decode(syndrome uint64) uint64 {
	lookupDecodes.Inc()
	c, ok := l.table[syndrome]
	if !ok {
		// Unreachable for valid codes; return identity defensively.
		return 0
	}
	return c
}

// TableSize returns the number of distinct syndromes covered. It is
// 1<<len(checkMasks) exactly when the checks are independent; then
// Syndrome(Decode(s)) == s for every syndrome s.
func (l *Lookup) TableSize() int { return len(l.table) }

// LogicalParity returns a bitset over all 1<<len(checkMasks) syndromes
// whose bit s (word s/64, bit s%64) is the parity of Decode(s) on the
// logical support. A syndrome without a table entry reads 0, as Decode's
// identity fallback does. It reads the table directly, so building it
// counts no decodes.
func (l *Lookup) LogicalParity(logical uint64) []uint64 {
	p := make([]uint64, (1<<len(l.checkMasks)+63)/64)
	for s, c := range l.table {
		p[s/64] |= uint64(bits.OnesCount64(c&logical)&1) << (s % 64)
	}
	return p
}

// enumerateCombinations calls fn with every n-bit mask of the given weight.
func enumerateCombinations(n, w int, fn func(uint64)) {
	if w > n {
		return
	}
	idx := make([]int, w)
	for i := range idx {
		idx[i] = i
	}
	for {
		var m uint64
		for _, q := range idx {
			m |= 1 << uint(q)
		}
		fn(m)
		i := w - 1
		for i >= 0 && idx[i] == n-w+i {
			i--
		}
		if i < 0 {
			return
		}
		idx[i]++
		for j := i + 1; j < w; j++ {
			idx[j] = idx[j-1] + 1
		}
	}
}
