package densmat

import "strconv"

// CanonicalFloat renders f in a canonical, bit-exact, architecture-
// independent form — the hexadecimal floating-point format, which is an
// injective encoding of the float64 bit pattern for all finite values (and
// distinguishes ±Inf and NaN). Memo keys derived from device parameters
// (cell.Fingerprint) must use this rather than %g/%v: two decimal
// renderings can collide on distinct floats, and any lossy rendering would
// alias distinct physical configurations to one memo entry.
func CanonicalFloat(f float64) string {
	return strconv.FormatFloat(f, 'x', -1, 64)
}
