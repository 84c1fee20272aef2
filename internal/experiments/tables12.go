package experiments

import (
	"fmt"
	"io"

	"hetarch/internal/cell"
	"hetarch/internal/core"
	"hetarch/internal/device"
)

// Table1 prints the near-term device catalog (paper Table 1).
func Table1(w io.Writer) {
	fmt.Fprintln(w, "== Table 1: near-term superconducting devices ==")
	fmt.Fprintf(w, "%-34s %10s %10s %8s %10s %6s %5s %9s %12s\n",
		"device", "T1(us)", "T2(us)", "readout", "gate", "err", "conn", "capacity", "ctrl lines")
	for _, d := range device.Catalog() {
		g := d.Gates[len(d.Gates)-1]
		ro := "-"
		if d.HasReadout {
			ro = fmt.Sprintf("%gus", d.ReadoutTime)
		}
		fmt.Fprintf(w, "%-34s %10g %10g %8s %7gns %6.0e %5d %9d %12d\n",
			d.Name, d.T1, d.T2, ro, g.Time*1000, g.Error, d.Connectivity, d.Capacity, d.ControlOverhead())
	}
}

// Table2 prints the standard cells with design-rule verification and
// density-matrix characterization (paper Table 2), paying full simulation
// for every cell.
func Table2(w io.Writer) error {
	fmt.Fprintln(w, "== Table 2: quantum standard cells ==")
	storage := func() *device.Device { return device.StandardStorage(12500, 10) }
	compute := func() *device.Device { return device.StandardCompute(500) }
	computeNoRO := func() *device.Device { return device.StandardComputeNoReadout(500) }

	cells := []struct {
		c    *cell.Cell
		char func(*cell.Cell) (*cell.Characterization, error)
	}{
		{cell.NewRegister(storage(), computeNoRO(), 3), cell.CharacterizeRegister},
		{cell.NewParCheck(computeNoRO(), compute()), cell.CharacterizeParCheck},
		{cell.NewSeqOp(storage, compute, compute()), cell.CharacterizeSeqOp},
		{cell.NewUSC(storage, compute, compute()), cell.CharacterizeUSC},
		{cell.NewUSCExt(storage, compute, compute()), nil},
	}
	for _, entry := range cells {
		v := cell.CheckDesignRules(entry.c)
		status := "design rules OK"
		if len(v) > 0 {
			status = fmt.Sprintf("VIOLATIONS: %v", v)
		}
		fmt.Fprintf(w, "%-10s devices=%d couplings=%d capacity=%2d footprint=%6.1fmm^2 ctrl=%2d  %s\n",
			entry.c.Name, len(entry.c.Elements), len(entry.c.Couplings),
			entry.c.QubitCapacity(), entry.c.FootprintArea(), entry.c.ControlOverhead(), status)
		if entry.char == nil {
			continue
		}
		ch, err := entry.char(entry.c)
		if err != nil {
			return err
		}
		for _, op := range ch.Ops {
			fmt.Fprintf(w, "    op %-14s duration=%6.3fus fidelity=%.6f\n", op.Name, op.Duration, op.Fidelity)
		}
	}
	return nil
}

// Table2Store is Table2. It exists only for cmd/hetarchbench, which calls
// Table2Store(w, nil); the Characterizer is ignored.
func Table2Store(w io.Writer, _ *core.Characterizer) error { return Table2(w) }
