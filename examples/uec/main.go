// Universal QEC memory: run the Steane code on the universal
// error-correction module across three storage devices from the Table-1
// catalog, and compare against the homogeneous square-lattice baseline —
// the Section 4.2.2 scenario at example scale.
//
// Run with:
//
//	go run ./examples/uec
package main

import (
	"context"
	"fmt"
	"log"

	"hetarch"
)

func main() {
	ctx := context.Background()
	code := hetarch.SteaneCode()
	const shots = 10000

	// Three storage options from the device catalog, by coherence time.
	storageOptions := []struct {
		name     string
		tsMillis float64
	}{
		{hetarch.NewFutureOnChipResonator().Name, 1.0},
		{hetarch.NewMultimodeResonator3D().Name, 2.0},
		{hetarch.NewMemory3D().Name, 25.0},
	}

	combined := func(tsMillis float64, heterogeneous bool) float64 {
		total := 0.0
		for _, basis := range []byte{'Z', 'X'} {
			p := hetarch.NewUECParams(code, tsMillis, heterogeneous)
			p.Basis = basis
			m, err := hetarch.NewUECModule(p)
			if err != nil {
				log.Fatal(err)
			}
			r, err := m.RunContext(ctx, shots, 11, 0)
			if err != nil {
				log.Fatal(err)
			}
			total += r.LogicalErrorRate()
		}
		return total
	}

	fmt.Printf("Steane [[7,1,3]] on the universal error-correction module (%d shots/sector):\n\n", shots)
	for _, opt := range storageOptions {
		rate := combined(opt.tsMillis, true)
		fmt.Printf("  storage %-34s (T1 ~ %gms): logical error/cycle = %.4f\n",
			opt.name, opt.tsMillis, rate)
	}

	hom := combined(0, false)
	fmt.Printf("\n  homogeneous lattice baseline:               logical error/cycle = %.4f\n", hom)

	// Where does error correction start paying for itself on this module?
	pt, ok, err := hetarch.UECPseudothreshold(ctx, hetarch.NewUECParams(code, 25, true), 4000, 11)
	if err != nil {
		log.Fatal(err)
	}
	if ok {
		fmt.Printf("\n  gate-error pseudothreshold of the serialized module: %.4f\n", pt)
	}
}
