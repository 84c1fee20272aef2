// Design-space exploration: sweep the Table-1 storage catalog for a
// Register-based memory module on parallel workers, characterize
// each distinct cell exactly once (the HetArch simulation-hierarchy
// payoff), and print the Pareto frontier between stored-qubit error and
// chip footprint — the real coherence-vs-size tradeoff of superconducting
// storage.
//
// Run with:
//
//	go run ./examples/designspace
package main

import (
	"context"
	"fmt"
	"log"

	"hetarch"
)

func main() {
	characterizer := hetarch.NewCharacterizer()

	// The storage candidates from the paper's Table 1: coherence grows with
	// physical size — that is the tradeoff the sweep explores.
	storages := []func() *hetarch.Device{
		hetarch.NewFutureOnChipResonator, // 1 ms, 25 mm², 10 modes
		hetarch.NewMultimodeResonator3D,  // 2 ms, 10000 mm², 10 modes
		hetarch.NewMemory3D,              // 25 ms, 25 mm² footprint, 1 mode
	}

	calls0, hits0 := characterizer.Stats()
	// The grid: every storage device crossed with three hold times. The
	// parallel engine evaluates points across all cores with bit-identical
	// results at any worker count; one density-matrix characterization per
	// storage device, the hold-time dimension reuses the cached channel.
	params := []hetarch.SweepParam{
		{Name: "storage", Values: []float64{0, 1, 2}},
		{Name: "holdUs", Values: []float64{10, 100, 1000}},
	}
	results, err := hetarch.SweepParallel(context.Background(), params, 0, func(p hetarch.SweepPoint) (map[string]float64, error) {
		storage := storages[int(p["storage"])]()
		compute := hetarch.NewStandardComputeNoReadout(500)
		reg := hetarch.NewRegister(storage, compute, 2)
		char, err := characterizer.Characterize(hetarch.CharacterizationKey(reg), reg, hetarch.CharacterizeRegister)
		if err != nil {
			return nil, err
		}
		perUs := char.MustOp("idle-1us").ErrorRate()
		keep := 1.0
		for i := 0; i < int(p["holdUs"]); i++ {
			keep *= 1 - perUs
		}
		loadStore := char.MustOp("load").ErrorRate() + char.MustOp("store").ErrorRate()
		return map[string]float64{
			"storedError":   1 - keep + loadStore,
			"footprintPerQ": reg.FootprintArea() / float64(reg.QubitCapacity()),
		}, nil
	})
	if err != nil {
		log.Fatal(err)
	}

	calls1, hits1 := characterizer.Stats()
	calls, hits := calls1-calls0, hits1-hits0
	fmt.Printf("evaluated %d design points with %d cell simulations (%d cache hits)\n\n",
		len(results), calls-hits, hits)

	for _, holdUs := range []float64{10, 100, 1000} {
		var slice []hetarch.SweepResult
		for _, r := range results {
			if r.Point["holdUs"] == holdUs {
				slice = append(slice, r)
			}
		}
		front := hetarch.ParetoFront(slice, []string{"storedError", "footprintPerQ"})
		fmt.Printf("hold %.0f us — Pareto frontier (error vs footprint/qubit):\n", holdUs)
		for _, r := range front {
			fmt.Printf("  %-34s storedError=%8.3g footprint/qubit=%8.2f mm2\n",
				storages[int(r.Point["storage"])]().Name,
				r.Metrics["storedError"], r.Metrics["footprintPerQ"])
		}
		fmt.Println()
	}
}
