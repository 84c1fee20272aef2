// Package hetarch is a toolbox for designing heterogeneous superconducting
// quantum microarchitectures, reproducing "HetArch: Heterogeneous
// Microarchitectures for Superconducting Quantum Systems" (MICRO '23).
//
// The library follows the paper's three-layer hierarchy:
//
//   - Devices (NewFixedFrequencyQubit, NewMultimodeResonator3D, …) are the
//     physical elements, characterized by coherence times, gate sets,
//     connectivity, control overhead and footprint (Table 1).
//   - Standard cells (NewRegister, NewParCheck, NewSeqOp, NewUSC) assemble
//     devices under the design rules DR1–DR4 and are characterized once by
//     exact density-matrix simulation (Table 2).
//   - Modules (DistillationModule, SurfaceMemory, UECModule, CodeTeleport)
//     execute quantum subroutines and are evaluated by composing the cell
//     characterizations with fast stabilizer Monte Carlo and event-driven
//     simulation.
//
// This root package is the public facade: it re-exports the stable API of
// the internal packages so applications depend only on module path
// "hetarch". See the examples directory for runnable entry points and
// cmd/hetarch for the experiment harness that regenerates every table and
// figure in the paper's evaluation section.
package hetarch

import (
	"context"
	"math/rand"

	"hetarch/internal/cell"
	"hetarch/internal/codetelep"
	"hetarch/internal/core"
	"hetarch/internal/decoder"
	"hetarch/internal/device"
	"hetarch/internal/distill"
	"hetarch/internal/dse"
	"hetarch/internal/pauli"
	"hetarch/internal/qec"
	"hetarch/internal/surface"
	"hetarch/internal/uec"
)

// Device layer (Table 1).

// Device is a physical quantum device model.
type Device = device.Device

// DeviceKind classifies devices as compute or storage.
type DeviceKind = device.Kind

// Device kinds.
const (
	Compute = device.Compute
	Storage = device.Storage
)

// DeviceCatalog returns the paper's Table-1 device catalog.
func DeviceCatalog() []*Device { return device.Catalog() }

// NewFixedFrequencyQubit returns the planar transmon entry.
func NewFixedFrequencyQubit() *Device { return device.FixedFrequencyQubit() }

// NewFluxTunableQubit returns the fluxonium-style entry.
func NewFluxTunableQubit() *Device { return device.FluxTunableQubit() }

// NewMemory3D returns the ultra-high-coherence 3D memory entry.
func NewMemory3D() *Device { return device.Memory3D() }

// NewMultimodeResonator3D returns the 10-mode 3D resonator entry.
func NewMultimodeResonator3D() *Device { return device.MultimodeResonator3D() }

// NewFutureOnChipResonator returns the projected on-chip resonator entry.
func NewFutureOnChipResonator() *Device { return device.FutureOnChipResonator() }

// NewStandardCompute returns the Section-4 idealized compute device with
// T1 = T2 = tc microseconds.
func NewStandardCompute(tcMicros float64) *Device { return device.StandardCompute(tcMicros) }

// NewStandardComputeNoReadout returns the idealized compute device without
// readout circuitry.
func NewStandardComputeNoReadout(tcMicros float64) *Device {
	return device.StandardComputeNoReadout(tcMicros)
}

// NewStandardStorage returns the idealized storage device with T1 = T2 = ts
// microseconds and the given mode count.
func NewStandardStorage(tsMicros float64, modes int) *Device {
	return device.StandardStorage(tsMicros, modes)
}

// Standard-cell layer (Table 2).

// Cell is a quantum standard cell: devices, couplings, reserved external
// links.
type Cell = cell.Cell

// CellViolation is one design-rule violation.
type CellViolation = cell.Violation

// Characterization is the channel-level abstraction of a simulated cell.
type Characterization = cell.Characterization

// NewRegister builds the Register standard cell.
func NewRegister(storage, compute *Device, externalLinks int) *Cell {
	return cell.NewRegister(storage, compute, externalLinks)
}

// NewParCheck builds the parity-check standard cell.
func NewParCheck(computeNoRO, computeRO *Device) *Cell {
	return cell.NewParCheck(computeNoRO, computeRO)
}

// NewSeqOp builds the sequential-operations standard cell.
func NewSeqOp(storage, compute func() *Device, parityRO *Device) *Cell {
	return cell.NewSeqOp(storage, compute, parityRO)
}

// NewUSC builds the universal stabilizer cell.
func NewUSC(storage, compute func() *Device, parityRO *Device) *Cell {
	return cell.NewUSC(storage, compute, parityRO)
}

// NewUSCExt builds the USC extension cell.
func NewUSCExt(storage, compute func() *Device, parityRO *Device) *Cell {
	return cell.NewUSCExt(storage, compute, parityRO)
}

// CheckDesignRules validates a cell against DR1–DR4.
func CheckDesignRules(c *Cell) []CellViolation { return cell.CheckDesignRules(c) }

// CharacterizeRegister density-matrix-simulates a Register cell.
func CharacterizeRegister(c *Cell) (*Characterization, error) { return cell.CharacterizeRegister(c) }

// CharacterizeParCheck density-matrix-simulates a ParCheck cell.
func CharacterizeParCheck(c *Cell) (*Characterization, error) { return cell.CharacterizeParCheck(c) }

// CharacterizeSeqOp density-matrix-simulates a SeqOp cell.
func CharacterizeSeqOp(c *Cell) (*Characterization, error) { return cell.CharacterizeSeqOp(c) }

// CharacterizeUSC density-matrix-simulates a USC cell.
func CharacterizeUSC(c *Cell) (*Characterization, error) { return cell.CharacterizeUSC(c) }

// Module layer and composition framework.

// Module is a node of the hardware hierarchy.
type Module = core.Module

// NewModule returns an empty module.
func NewModule(name string) *Module { return core.NewModule(name) }

// Characterizer memoizes cell characterizations across a design sweep.
type Characterizer = core.Characterizer

// NewCharacterizer returns an empty characterization cache.
func NewCharacterizer() *Characterizer { return core.NewCharacterizer() }

// CharacterizationKey returns the canonical memo key of a cell's
// characterization: a rendering of the cell's topology and every device
// parameter. Cells with equal keys characterize identically.
func CharacterizationKey(c *Cell) string { return cell.Fingerprint(c) }

// ErrorBudget composes independent module error contributions.
type ErrorBudget = core.ErrorBudget

// SweepParam is one swept design parameter.
type SweepParam = core.Param

// SweepPoint is one grid assignment.
type SweepPoint = core.Point

// SweepResult pairs a point with its metrics.
type SweepResult = core.Result

// ParetoFront filters sweep results to the Pareto-optimal set.
func ParetoFront(results []SweepResult, minimize []string) []SweepResult {
	return core.ParetoFront(results, minimize)
}

// SweepPartialError reports a parallel sweep that stopped early; the
// results returned alongside it are the completed prefix of the grid.
type SweepPartialError = dse.PartialError

// SweepParallel evaluates the full factorial grid across worker goroutines
// (workers <= 0 means NumCPU) with bit-identical results at any worker
// count. On cancellation or an evaluator error it returns the longest
// completed prefix of the grid and a *SweepPartialError.
func SweepParallel(ctx context.Context, params []SweepParam, workers int, fn func(SweepPoint) (map[string]float64, error)) ([]SweepResult, error) {
	return dse.Sweep(ctx, params, dse.Config{Workers: workers}, fn)
}

// QEC codes.

// Code is a CSS stabilizer code.
type Code = qec.Code

// SteaneCode returns the [[7,1,3]] Steane code.
func SteaneCode() *Code { return qec.Steane() }

// ReedMullerCode returns the [[15,1,3]] quantum Reed–Muller code.
func ReedMullerCode() *Code { return qec.ReedMuller15() }

// TriColorCode returns the verified [[19,1,5]] triangular color code.
func TriColorCode() *Code { return qec.TriColor5() }

// SurfaceCode returns the rotated planar surface code of distance d.
func SurfaceCode(d int) *Code {
	c, _ := qec.Surface(d)
	return c
}

// Decoders.

// LookupDecoder is the exact minimum-weight syndrome-table decoder.
type LookupDecoder = decoder.Lookup

// NewLookupDecoder builds a lookup decoder for one error sector.
func NewLookupDecoder(n int, checkMasks []uint64) *LookupDecoder {
	return decoder.NewLookup(n, checkMasks)
}

// Entanglement distillation (Section 4.1).

// DistillationConfig parameterizes the distillation module simulation.
type DistillationConfig = distill.Config

// DistillationStats summarizes a distillation run.
type DistillationStats = distill.Stats

// DistillationModule is the event-driven distillation simulator.
type DistillationModule = distill.Module

// NewDistillationConfig returns the paper's baseline configuration.
func NewDistillationConfig(tsMillis float64, heterogeneous bool) DistillationConfig {
	return distill.DefaultConfig(tsMillis, heterogeneous)
}

// NewDistillationModule prepares a distillation simulation.
func NewDistillationModule(cfg DistillationConfig) *DistillationModule {
	return distill.NewModule(cfg)
}

// EntangledPair is a Bell-diagonal two-qubit state.
type EntangledPair = distill.Pair

// NewWernerPair returns the Werner state of the given fidelity.
func NewWernerPair(fidelity float64) EntangledPair { return distill.NewWernerPair(fidelity) }

// DEJMPS applies one distillation round to two pairs.
func DEJMPS(a, b EntangledPair, gateError float64) (EntangledPair, float64) {
	return distill.DEJMPS(a, b, gateError)
}

// Surface-code memory (Section 4.2.1).

// SurfaceMemoryParams configures a surface-code memory experiment.
type SurfaceMemoryParams = surface.Params

// SurfaceMemory is a compiled surface-code memory experiment.
type SurfaceMemory = surface.Experiment

// NewSurfaceMemoryParams returns the Section 4.2.1 baseline for distance d.
func NewSurfaceMemoryParams(d int) SurfaceMemoryParams { return surface.DefaultParams(d) }

// NewSurfaceMemory compiles a surface-code memory experiment.
func NewSurfaceMemory(p SurfaceMemoryParams) (*SurfaceMemory, error) { return surface.New(p) }

// Universal error correction (Section 4.2.2).

// UECParams configures a universal-error-correction experiment.
type UECParams = uec.Params

// UECModule is a compiled UEC memory experiment.
type UECModule = uec.Experiment

// NewUECParams returns the Section 4.2.2 baseline for a code.
func NewUECParams(code *Code, tsMillis float64, heterogeneous bool) UECParams {
	return uec.DefaultParams(code, tsMillis, heterogeneous)
}

// NewUECModule compiles a UEC experiment.
func NewUECModule(p UECParams) (*UECModule, error) { return uec.New(p) }

// UECPseudothreshold locates the module's gate-error break-even point,
// sampling each grid point on all cores (the fitted value is worker-count
// independent; see internal/mc). Cancelling ctx abandons the fit and
// returns the engine's error.
func UECPseudothreshold(ctx context.Context, base UECParams, shots int, seed int64) (float64, bool, error) {
	return uec.PseudothresholdContext(ctx, base, shots, seed, 0)
}

// Code teleportation (Section 4.3).

// CodeTeleportParams configures a CT-state preparation evaluation.
type CodeTeleportParams = codetelep.Params

// CodeTeleportResult is the composed CT error budget.
type CodeTeleportResult = codetelep.Result

// NewCodeTeleportParams returns the Section 4.3 setup for a code pair.
func NewCodeTeleportParams(a, b *Code, tsMillis float64, heterogeneous bool) CodeTeleportParams {
	return codetelep.DefaultParams(a, b, tsMillis, heterogeneous)
}

// CodeTeleport evaluates the CT module error model. Cancelling ctx aborts
// its Monte Carlo sub-module runs and returns the engine's error.
func CodeTeleport(ctx context.Context, p CodeTeleportParams) (*CodeTeleportResult, error) {
	return codetelep.EvaluateContext(ctx, p)
}

// Protocol-level code teleportation (Fig. 10).

// StabilizerTableau is an exact Aaronson–Gottesman stabilizer state.
type StabilizerTableau = pauli.Tableau

// CTLayout records the qubit indexing of a prepared CT state.
type CTLayout = codetelep.CTLayout

// PrepareCTState executes the noiseless six-step CT protocol between two
// CSS codes on a stabilizer tableau.
func PrepareCTState(a, b *Code, rng *rand.Rand) (*StabilizerTableau, *CTLayout, error) {
	return codetelep.PrepareCTState(a, b, rng)
}

// VerifyCTState checks that a prepared state carries both codes' stabilizers
// and the joint logical XX and ZZ operators of |Φ+⟩_AB.
func VerifyCTState(tb *StabilizerTableau, layout *CTLayout) error {
	return codetelep.VerifyCTState(tb, layout)
}

// BBPSSW applies one round of the Bennett et al. purification protocol
// (Werner-twirled; converges slower than DEJMPS).
func BBPSSW(a, b EntangledPair, gateError float64) (EntangledPair, float64) {
	return distill.BBPSSW(a, b, gateError)
}

// NewDistillationConfigFromCells derives a distillation configuration from
// Register and ParCheck characterizations — the cell layer feeding the
// module layer, as in the paper's simulation hierarchy.
func NewDistillationConfigFromCells(registerChar, parcheckChar *Characterization, heterogeneous bool) DistillationConfig {
	return distill.ConfigFromCells(registerChar, parcheckChar, heterogeneous)
}
