package cell

import (
	"fmt"
	"sort"
	"strings"

	"hetarch/internal/densmat"
)

// Fingerprint renders the complete physical identity of a cell — topology
// (elements, couplings, reserved external links, readout requirement) plus
// every device parameter that enters characterization — as a canonical
// string. Two cells with equal fingerprints are physically interchangeable:
// their characterizations are bit-identical, which is what lets
// core.Characterizer use this string as its memo key.
//
// Floats are serialized with densmat.CanonicalFloat (exact, injective);
// map-shaped fields are emitted in sorted order; slice-shaped fields keep
// their declared order, which is part of the cell's identity (element and
// gate indices are meaningful). Device Notes are documentation and excluded.
func Fingerprint(c *Cell) string {
	var b strings.Builder
	f := densmat.CanonicalFloat
	fmt.Fprintf(&b, "cell %s readout-need %d\n", c.Name, c.ReadoutNeed)
	for i, e := range c.Elements {
		d := e.Dev
		fmt.Fprintf(&b, "element %d name %s subcell %s\n", i, e.Name, e.SubCell)
		fmt.Fprintf(&b, "  device %s kind %d t1 %s t2 %s readout %s has-readout %t conn %d cap %d\n",
			d.Name, int(d.Kind), f(d.T1), f(d.T2), f(d.ReadoutTime), d.HasReadout,
			d.Connectivity, d.Capacity)
		for _, g := range d.Gates {
			fmt.Fprintf(&b, "  gate %s qubits %d time %s error %s\n", g.Name, g.Qubits, f(g.Time), f(g.Error))
		}
		fmt.Fprintf(&b, "  control %s\n", strings.Join(d.ControlLines, ","))
		fmt.Fprintf(&b, "  footprint %s %s %s\n", f(d.Footprint.Width), f(d.Footprint.Height), f(d.Footprint.Depth))
	}
	for _, cp := range c.Couplings {
		fmt.Fprintf(&b, "coupling %d %d\n", cp[0], cp[1])
	}
	ext := make([]int, 0, len(c.External))
	for i := range c.External {
		ext = append(ext, i)
	}
	sort.Ints(ext)
	for _, i := range ext {
		fmt.Fprintf(&b, "external %d %d\n", i, c.External[i])
	}
	return b.String()
}
