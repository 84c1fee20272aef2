// Code teleportation: prepare a logical CT resource state between the
// Steane code and a distance-3 surface code, and print the per-sub-module
// error budget (Section 4.3 at example scale).
//
// Run with:
//
//	go run ./examples/codetelep
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"hetarch"
)

func main() {
	steane := hetarch.SteaneCode()
	sc3 := hetarch.SurfaceCode(3)

	for _, heterogeneous := range []bool{true, false} {
		p := hetarch.NewCodeTeleportParams(steane, sc3, 25, heterogeneous)
		p.NativeB = true // the surface code is lattice-native for the baseline
		p.Shots = 8000
		res, err := hetarch.CodeTeleport(context.Background(), p)
		if err != nil {
			log.Fatal(err)
		}

		arch := "heterogeneous"
		if !heterogeneous {
			arch = "homogeneous"
		}
		fmt.Printf("== %s architecture ==\n", arch)
		if res.DistillationFailed {
			fmt.Println("entanglement distillation failed to reach the 99.5% EP target;")
			fmt.Println("the CT state is effectively maximally mixed (error 0.5)")
		} else {
			fmt.Printf("distilled EP fidelity: %.4f\n", res.EPFidelityAchieved)
			fmt.Print(res.Budget.String())
		}
		fmt.Printf("CT logical error probability: %.4f\n\n", res.LogicalErrorProbability)
	}

	// Protocol-level check: run the six-step preparation circuit exactly on
	// a stabilizer tableau and verify the resulting resource state carries
	// both codes' stabilizers plus the joint logical XX and ZZ.
	tb, layout, err := hetarch.PrepareCTState(steane, sc3, rand.New(rand.NewSource(42)))
	if err != nil {
		log.Fatal(err)
	}
	if err := hetarch.VerifyCTState(tb, layout); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("protocol check: |Φ+⟩ between %s and %s verified on %d qubits (CAT size %d)\n",
		steane.Name, sc3.Name, layout.Total, layout.CatSize)
}
