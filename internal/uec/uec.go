// Package uec implements the universal error-correction module of Section
// 4.2.2: data qubits live in high-capacity storage registers (USC standard
// cells) and stabilizer checks of ANY code topology are executed serially
// through a central readout ancilla — trading time (and hence storage
// lifetime) for full code-topology flexibility.
//
// The homogeneous baseline executes the same code on a square lattice with
// parallel checks, paying SWAP routing for non-lattice-native check
// topologies (the paper's Qiskit-transpiled sea-of-qubits comparison).
package uec

import (
	"context"
	"fmt"
	"math"

	"hetarch/internal/decoder"
	"hetarch/internal/mc"
	"hetarch/internal/obs"
	"hetarch/internal/qec"
	"hetarch/internal/splitmix"
	"hetarch/internal/stabsim"
	"hetarch/internal/topology"
)

// Monte Carlo telemetry: shots tick per 64-shot batch for live progress;
// errors settle once per run.
var (
	uecShots  = obs.C("uec.shots")
	uecErrors = obs.C("uec.logical_errors")
)

// Params configures a UEC memory experiment for one code.
type Params struct {
	Code *qec.Code

	// Heterogeneous: serialized checks with data in storage (Ts).
	// Homogeneous: parallel checks on a square lattice, everything at Tc.
	Heterogeneous bool

	TsMicros float64 // storage lifetime
	TcMicros float64 // compute lifetime

	P2          float64 // two-qubit gate error (paper Section 4.2: 1%)
	SwapTime    float64 // µs, storage load/store SWAP
	GateTime    float64 // µs, compute-compute CX
	HTime       float64 // µs
	ReadoutTime float64 // µs

	// SwapError is the error of each storage load/store SWAP, applied as
	// depolarizing noise on the moved data qubit — the serialization tax
	// the UEC pays per check per qubit. The default charges the SWAP half
	// the compute-compute two-qubit error: Section 3.1 expects swap
	// fidelity to be limited by gate time and transmon T2, i.e. between
	// coherence-limited and the full 1% compute gate error.
	SwapError float64

	// OptimizedSchedule enables the register-assignment and check-schedule
	// optimizer (Section 4.2.2's brute-force assignment search): each
	// check's load/store SWAPs are pipelined behind the ancilla gates of
	// qubits from other registers, shortening the serialized cycle and
	// hence the storage idling of every data qubit.
	OptimizedSchedule bool

	// Registers and ModesPerRegister describe the USC storage layout used
	// by the schedule optimizer (defaults: 3 registers x 10 modes).
	Registers        int
	ModesPerRegister int

	// Flagged enables flag-qubit-protected stabilizer extraction on the
	// serialized module (Section 4.2.2: "Flag circuits may be used to
	// ensure fault-tolerance"). With flags, a single ancilla fault can no
	// longer spread into a multi-qubit data ("hook") error: each CX's noise
	// reduces to its data-side marginal plus an ancilla measurement flip.
	// Flags cost two extra gate slots per check.
	Flagged bool

	// NativePlacement marks the code as lattice-native for the homogeneous
	// baseline: every check ancilla is adjacent to all of its data qubits
	// and no routing is paid ("if an optimal square lattice transpilation
	// is known, as in the case of surface code, it will be used").
	NativePlacement bool

	Basis byte // 'Z' or 'X' memory experiment
}

// DefaultParams returns the Section 4.2.2 baseline: Tc = 0.5 ms, 1%
// two-qubit gates, 100 ns gates and SWAPs, 1 µs readout.
func DefaultParams(code *qec.Code, tsMillis float64, heterogeneous bool) Params {
	return Params{
		Code:          code,
		Heterogeneous: heterogeneous,
		TsMicros:      tsMillis * 1000,
		TcMicros:      500,
		P2:            0.01,
		SwapError:     0.005,
		Flagged:       heterogeneous,
		SwapTime:      0.1,
		GateTime:      0.1,
		HTime:         0.04,
		ReadoutTime:   1.0,
		Basis:         'Z',
	}
}

// Experiment is a compiled UEC memory experiment: the stabsim circuit plus
// the measured sector's minimum-weight lookup decoder, reduced to the
// logical parity of its correction for each syndrome.
type Experiment struct {
	P       Params
	Circuit *stabsim.Circuit

	// Assignment is the optimized register assignment (nil when the
	// schedule optimizer is off or the baseline is homogeneous).
	Assignment *Assignment

	CycleDuration float64 // µs per full (serialized or parallel) QEC cycle

	parity      []uint64 // decoder.Lookup.LogicalParity over the basis checks
	logicalMask uint64
	numChecks   int

	// sens is Circuit compiled into its noise sites, shared read-only by
	// the Monte Carlo workers like parity.
	sens *stabsim.Sensitivities
}

// basisStabs returns the stabilizers whose outcomes this experiment's
// detectors track, and the full check list in execution order (basis checks
// carry detectors; the opposite type still executes for timing and noise).
func (p Params) basisStabs() (basis, other [][]int) {
	xs := make([][]int, len(p.Code.XStabs))
	for i, s := range p.Code.XStabs {
		xs[i] = qec.Support(s)
	}
	zs := make([][]int, len(p.Code.ZStabs))
	for i, s := range p.Code.ZStabs {
		zs[i] = qec.Support(s)
	}
	if p.Basis == 'Z' {
		return zs, xs
	}
	return xs, zs
}

// New compiles the experiment.
func New(p Params) (*Experiment, error) {
	if p.Code == nil {
		return nil, fmt.Errorf("uec: nil code")
	}
	if p.Code.N > 30 {
		return nil, fmt.Errorf("uec: module supports codes up to 30 qubits, got %d", p.Code.N)
	}
	if p.Basis != 'Z' && p.Basis != 'X' {
		return nil, fmt.Errorf("uec: basis must be 'Z' or 'X'")
	}
	e := &Experiment{P: p}
	basis, _ := p.basisStabs()
	e.numChecks = len(basis)
	checkMasks := make([]uint64, len(basis))
	for i, s := range basis {
		checkMasks[i] = maskOf(s)
	}
	logical := p.Code.LogicalZ
	if p.Basis == 'X' {
		logical = p.Code.LogicalX
	}
	e.logicalMask = maskOf(qec.Support(logical))
	lookup := decoder.CachedLookup(p.Code.N, checkMasks)
	if lookup.TableSize() != 1<<len(checkMasks) {
		return nil, fmt.Errorf("uec: %c checks are not independent: the lookup table covers %d of %d syndromes",
			p.Basis, lookup.TableSize(), 1<<len(checkMasks))
	}
	e.parity = lookup.LogicalParity(e.logicalMask)

	if p.Registers <= 0 {
		p.Registers = 3
	}
	if p.ModesPerRegister <= 0 {
		p.ModesPerRegister = 10
	}
	e.P = p
	if p.Heterogeneous && p.OptimizedSchedule {
		asg, err := Assign(p.Code, p.Registers, p.ModesPerRegister, p.SwapTime, p.GateTime)
		if err != nil {
			return nil, err
		}
		e.Assignment = asg
	}

	if p.Heterogeneous {
		e.buildSerializedCircuit()
	} else {
		e.buildLatticeCircuit()
	}
	sens, err := stabsim.CompileSensitivities(e.Circuit)
	if err != nil {
		return nil, fmt.Errorf("uec: %w", err)
	}
	e.sens = sens
	return e, nil
}

func maskOf(support []int) uint64 {
	var m uint64
	for _, q := range support {
		m |= 1 << uint(q)
	}
	return m
}

// buildSerializedCircuit emits the heterogeneous UEC experiment: one noisy
// serialized QEC cycle (every check, one at a time, through the single
// central ancilla) followed by one noiseless cycle of the basis-type checks
// (the standard perfect-final-round convention), then transversal readout.
//
// Noise attribution is phenomenological-at-round-start: every error a cycle
// induces on a data qubit (load/store SWAP errors, gate-error marginals,
// compute-window decoherence, storage idling for the full serialized cycle)
// is applied before the cycle's checks run, and ancilla-side errors surface
// as measurement flips. This is the standard convention that keeps the
// syndrome of a cycle well defined for the lookup decoder; flag
// circuits (Params.Flagged) justify the absence of multi-qubit hook errors.
func (e *Experiment) buildSerializedCircuit() {
	p := e.P
	n := p.Code.N
	anc := n
	c := stabsim.NewCircuit(n + 1)

	basis, other := p.basisStabs()
	dataAll := seq(n)
	if p.Basis == 'X' {
		c.H(dataAll...)
	}

	mFlip := (1 - math.Exp(-p.ReadoutTime/p.TcMicros)) / 2

	// Check durations: per involved qubit, load + CX + store (pipelined
	// across registers when the schedule optimizer is on); plus readout
	// and, when flagged, two flag-coupling gate slots.
	checkDur := func(support []int, isX bool) float64 {
		var d float64
		if e.Assignment != nil {
			d = checkDuration(support, e.Assignment.Register, p.SwapTime, p.GateTime) + p.ReadoutTime
		} else {
			d = float64(len(support))*(2*p.SwapTime+p.GateTime) + p.ReadoutTime
		}
		if isX {
			d += 2 * p.HTime
		}
		if p.Flagged {
			d += 2 * p.GateTime
		}
		return d
	}

	// Serialized cycle duration and per-qubit touch counts.
	cycle := 0.0
	touches := make([]int, n)
	for _, s := range basis {
		cycle += checkDur(s, p.Basis == 'X')
		for _, q := range s {
			touches[q]++
		}
	}
	for _, s := range other {
		cycle += checkDur(s, p.Basis != 'X')
		for _, q := range s {
			touches[q]++
		}
	}
	e.CycleDuration = cycle

	// Up-front noise: everything the cycle does to each data qubit.
	gateMarginal := p.P2 * 12.0 / 15.0 // data side of the CX depolarizing
	idleX, idleY, idleZ := stabsim.IdlePauliChannel(cycle, p.TsMicros, p.TsMicros)
	cwX, cwY, cwZ := stabsim.IdlePauliChannel(2*p.SwapTime+p.GateTime, p.TcMicros, p.TcMicros)
	for q := 0; q < n; q++ {
		c.PauliChannel1(idleX, idleY, idleZ, q) // storage idling
		for t := 0; t < touches[q]; t++ {
			c.Depolarize1(p.SwapError, q) // load SWAP
			c.Depolarize1(gateMarginal, q)
			c.Depolarize1(p.SwapError, q)     // store SWAP
			c.PauliChannel1(cwX, cwY, cwZ, q) // compute-window decoherence
		}
	}

	// Noisy serialized cycle: ideal check gates; ancilla errors become
	// measurement flips.
	emitCheck := func(support []int, isX bool, flip float64, det bool) {
		if isX {
			c.H(anc)
		}
		for _, q := range support {
			if isX {
				c.CX(anc, q)
			} else {
				c.CX(q, anc)
			}
		}
		if isX {
			c.H(anc)
		}
		c.MR(flip, anc)
		if det {
			c.Detector(-1)
		}
	}
	ancillaFlip := func(w int) float64 {
		f := mFlip
		for i := 0; i < w; i++ {
			f = 1 - (1-f)*(1-p.P2*8.0/15.0)
		}
		return f
	}
	for _, s := range basis {
		emitCheck(s, p.Basis == 'X', ancillaFlip(len(s)), true)
	}
	for _, s := range other {
		emitCheck(s, p.Basis != 'X', ancillaFlip(len(s)), false)
	}

	// Noiseless verification cycle of the basis checks.
	for _, s := range basis {
		emitCheck(s, p.Basis == 'X', 0, true)
	}

	// Transversal readout and observable.
	if p.Basis == 'X' {
		c.H(dataAll...)
	}
	c.M(dataAll...)
	var obsRecs []int
	for q := 0; q < n; q++ {
		if e.logicalMask>>uint(q)&1 == 1 {
			obsRecs = append(obsRecs, -(n - q))
		}
	}
	c.Observable(0, obsRecs...)
	e.Circuit = c
}

// buildLatticeCircuit emits the homogeneous baseline: all checks execute in
// parallel on a square lattice, each data-ancilla CX paying SWAP routing
// when the pair is not adjacent under a greedy placement. Noise follows the
// same phenomenological-at-round-start attribution as the serialized module
// so that the two architectures are decoded identically.
func (e *Experiment) buildLatticeCircuit() {
	p := e.P
	n := p.Code.N
	basis, other := p.basisStabs()
	numAnc := len(basis) + len(other)

	// Lattice placement: data + ancillas.
	side := 1
	for side*side < n+numAnc {
		side++
	}
	lat := topology.SquareLattice(side, side)
	var inter []topology.Interaction
	all := append(append([][]int{}, basis...), other...)
	for ci, s := range all {
		for _, q := range s {
			inter = append(inter, topology.Interaction{A: q, B: n + ci})
		}
	}
	placement := lat.GreedyPlace(n+numAnc, inter)
	dm := lat.AllPairsDistances()
	routeSwaps := func(ci int, q int) int {
		if p.NativePlacement {
			return 0
		}
		d := dm[placement[q]][placement[n+ci]]
		if d <= 1 {
			return 0
		}
		return d - 1
	}

	anc := func(ci int) int { return n + ci }
	c := stabsim.NewCircuit(n + numAnc)
	dataAll := seq(n)
	if p.Basis == 'X' {
		c.H(dataAll...)
	}
	mFlip := (1 - math.Exp(-p.ReadoutTime/p.TcMicros)) / 2
	isXCheck := func(ci int) bool {
		if p.Basis == 'X' {
			return ci < len(basis)
		}
		return ci >= len(basis)
	}

	// Parallel round duration: the slowest check (including routing).
	maxDepth := 0.0
	for ci, s := range all {
		d := p.ReadoutTime
		for _, q := range s {
			d += p.GateTime * float64(1+3*routeSwaps(ci, q))
		}
		if isXCheck(ci) {
			d += 2 * p.HTime
		}
		if d > maxDepth {
			maxDepth = d
		}
	}
	e.CycleDuration = maxDepth

	// Up-front per-round noise: idle at Tc plus per-CX data marginals
	// (each routing SWAP is 3 CXs on the moving pair). Grouped by qubit —
	// independent single-qubit channels commute, so attribution order is
	// free — which lets the construction-time peephole fuse each qubit's
	// whole stack into a single Pauli channel the samplers draw once.
	gateMarginal := p.P2 * 12.0 / 15.0
	idleX, idleY, idleZ := stabsim.IdlePauliChannel(maxDepth, p.TcMicros, p.TcMicros)
	cxMarginals := make([]int, n)
	for ci, s := range all {
		for _, q := range s {
			cxMarginals[q] += 1 + 3*routeSwaps(ci, q)
		}
	}
	emitNoise := func() {
		for q := 0; q < n; q++ {
			c.PauliChannel1(idleX, idleY, idleZ, q)
			for k := 0; k < cxMarginals[q]; k++ {
				c.Depolarize1(gateMarginal, q)
			}
		}
	}
	ancillaFlip := func(ci int, w int) float64 {
		f := mFlip
		gates := w
		for _, q := range all[ci] {
			gates += 3 * routeSwaps(ci, q)
			_ = q
		}
		for i := 0; i < gates; i++ {
			f = 1 - (1-f)*(1-p.P2*8.0/15.0)
		}
		return f
	}

	emitRound := func(noisy bool) {
		if noisy {
			emitNoise()
		}
		for ci, s := range all {
			if isXCheck(ci) {
				c.H(anc(ci))
			}
			for _, q := range s {
				if isXCheck(ci) {
					c.CX(anc(ci), q)
				} else {
					c.CX(q, anc(ci))
				}
			}
			if isXCheck(ci) {
				c.H(anc(ci))
			}
		}
		for ci := range all {
			f := 0.0
			if noisy {
				f = ancillaFlip(ci, len(all[ci]))
			}
			c.MR(f, anc(ci))
		}
		// Basis checks occupy the first len(basis) entries of all, so
		// their records sit numAnc-ci back.
		for ci := range basis {
			c.Detector(-(numAnc - ci))
		}
	}
	emitRound(true)
	emitRound(false)

	if p.Basis == 'X' {
		c.H(dataAll...)
	}
	c.M(dataAll...)
	var obsRecs []int
	for q := 0; q < n; q++ {
		if e.logicalMask>>uint(q)&1 == 1 {
			obsRecs = append(obsRecs, -(n - q))
		}
	}
	c.Observable(0, obsRecs...)
	e.Circuit = c
}

func seq(n int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = i
	}
	return s
}

// Result summarizes a Monte Carlo run.
type Result struct {
	Shots         int
	LogicalErrors int
}

// LogicalErrorRate returns the per-cycle logical error probability for the
// measured sector.
func (r Result) LogicalErrorRate() float64 {
	return float64(r.LogicalErrors) / float64(r.Shots)
}

// RunContext samples the experiment 64 shots at a time from its compiled
// noise sites and decodes each shot in two stages: stage 1 corrects from
// the noisy round's syndrome s1, stage 2 from the residual of the
// verification round's syndrome sBoth. A shot is a logical error when the
// combined correction's logical parity disagrees with the true observable
// flip. Each shot arrives as one word, detector i at bit i: s1 is its low
// k bits, sBoth the next k and the observable the bit above them.
//
// The lookup table is complete (New checks it), so Syndrome(Decode(s)) == s
// and the stage-2 residual is s1 ^ sBoth. Logical parity is linear over
// XOR, so the prediction is parity[s1] ^ parity[s1^sBoth]: two bit reads
// per shot, with no map lookup, syndrome recomputation or shared counter.
//
// The mc engine distributes the shot budget across worker goroutines
// (workers <= 0 means runtime.NumCPU(), 1 runs serially on the calling
// goroutine). Workers own their samplers and gap tables; the compiled
// sites and the parity bitset are immutable after construction and shared
// read-only. Pooled (shots, errors) are bit-identical for any worker count.
//
// Cancellation stops dispatching new shards and returns the exact pooled
// tally of the completed shards alongside a *mc.PartialError. With a
// checkpoint scope on ctx (mc.WithCheckpoint), completed shards persist
// across interrupts and are not re-executed on resume.
func (e *Experiment) RunContext(ctx context.Context, shots int, seed int64, workers int) (Result, error) {
	k := uint(e.numChecks)
	checks := uint64(1)<<k - 1
	obsBit := uint(e.Circuit.NumDetectors())
	parity := e.parity
	cfg := mc.Config{Shots: shots, Seed: seed, Workers: workers}
	tally, err := mc.RunContext(ctx, cfg, func() mc.ShardRunner {
		rng := splitmix.New(0)
		ss := stabsim.NewSensitivitySampler(e.sens, rng)
		return func(sh mc.Shard) mc.Tally {
			rng.Seed(sh.Seed)
			var t mc.Tally
			for done := 0; done < sh.Shots; {
				words := ss.SampleBatch()
				n := min(64, sh.Shots-done)
				for _, w := range words[:n] {
					s1 := w & checks
					s2 := s1 ^ w>>k&checks
					predicted := parity[s1/64]>>(s1%64) ^ parity[s2/64]>>(s2%64)
					t.Errors += int64((predicted ^ w>>obsBit) & 1)
				}
				done += n
			}
			t.Shots = int64(sh.Shots)
			uecShots.Add(t.Shots)
			uecErrors.Add(t.Errors)
			return t
		}
	})
	return Result{Shots: int(tally.Shots), LogicalErrors: int(tally.Errors)}, err
}
