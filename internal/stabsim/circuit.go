// Package stabsim provides a noisy Clifford-circuit Monte Carlo engine, the
// fast simulation tier HetArch uses for module-level evaluation (the role the
// paper delegates to the Stim package).
//
// A Circuit is a sequence of Clifford operations, Pauli noise channels,
// measurements, and annotations (DETECTOR / OBSERVABLE) referencing earlier
// measurement records. Two execution backends are provided:
//
//   - FrameSampler: propagates a Pauli frame (error difference relative to a
//     noiseless reference execution) through the circuit. Cost per shot is
//     linear in circuit size, independent of qubit count beyond bit storage.
//     This is what makes 10⁴+-shot Monte Carlo over hundreds of qubits cheap.
//   - TableauRunner: exact stabilizer execution via the Aaronson–Gottesman
//     tableau with noise sampled as explicit Pauli injections. Quadratically
//     slower, used to validate the frame sampler and for exact small runs.
//
// Both require valid circuits: every DETECTOR must reference a measurement
// set whose parity is deterministic in the absence of noise (the standard
// detector contract).
package stabsim

import "fmt"

// OpCode enumerates circuit operations.
type OpCode int

// Operation codes. Gate codes conjugate the Pauli frame; noise codes sample
// errors; M/MR/R interact with the measurement record; Detector and
// Observable are annotations over previous records.
const (
	OpH OpCode = iota
	OpS
	OpSDag
	OpX
	OpY
	OpZ
	OpCX
	OpCZ
	OpSwap
	OpM  // measure Z
	OpMR // measure Z then reset to |0⟩
	OpR  // reset to |0⟩
	OpDepolarize1
	OpDepolarize2
	OpXError
	OpYError
	OpZError
	OpPauliChannel1 // probabilities (px, py, pz)
	OpDetector
	OpObservable
	OpTick
)

// Op is one circuit instruction.
type Op struct {
	Code    OpCode
	Targets []int     // qubits (pairs flattened for 2q ops)
	Args    []float64 // noise probabilities
	Recs    []int     // relative measurement refs (−1 = most recent) for Detector/Observable
	Index   int       // observable index for OpObservable
}

// Circuit is an immutable-once-built instruction sequence over N qubits.
//
// Two construction-time optimizations keep large circuits cheap to build
// and fast to replay:
//
//   - Op payloads (Targets, Args, Recs) are carved from chunked arenas
//     owned by the circuit instead of one heap allocation per op.
//   - Consecutive single-qubit Pauli noise ops on the same qubit are fused
//     into one OpPauliChannel1 whose probabilities are the exact channel
//     composition — the sampled error distribution is identical, but the
//     samplers draw one event mask per fused stack instead of one per op.
//
// The builders panic on a qubit out of range and on a noise probability
// that is NaN or outside [0, 1].
type Circuit struct {
	N   int
	Ops []Op

	numMeasurements int
	numDetectors    int
	numObservables  int

	intArena []int     // current carve block for Targets/Recs
	f64Arena []float64 // current carve block for Args
}

// arenaBlock is the chunk size for op-payload arenas; large enough that
// payload allocation is one make per ~hundreds of ops.
const arenaBlock = 1024

// carveInts copies vs into the circuit's int arena and returns the stable,
// capacity-capped sub-slice. Arena blocks are never reallocated, so
// previously carved op payloads stay valid as the circuit grows.
func (c *Circuit) carveInts(vs []int) []int {
	if len(vs) == 0 {
		return nil
	}
	if len(c.intArena) < len(vs) {
		n := arenaBlock
		if len(vs) > n {
			n = len(vs)
		}
		c.intArena = make([]int, n)
	}
	s := c.intArena[:len(vs):len(vs)]
	c.intArena = c.intArena[len(vs):]
	copy(s, vs)
	return s
}

// carveFloats is carveInts for Args payloads.
func (c *Circuit) carveFloats(vs ...float64) []float64 {
	if len(c.f64Arena) < len(vs) {
		n := arenaBlock
		if len(vs) > n {
			n = len(vs)
		}
		c.f64Arena = make([]float64, n)
	}
	s := c.f64Arena[:len(vs):len(vs)]
	c.f64Arena = c.f64Arena[len(vs):]
	copy(s, vs)
	return s
}

// pauliTriple extracts the (px, py, pz) channel of a fusable single-qubit
// Pauli noise op.
func pauliTriple(op *Op) (px, py, pz float64, ok bool) {
	if len(op.Targets) != 1 {
		return 0, 0, 0, false
	}
	switch op.Code {
	case OpDepolarize1:
		p := op.Args[0] / 3
		return p, p, p, true
	case OpXError:
		return op.Args[0], 0, 0, true
	case OpYError:
		return 0, op.Args[0], 0, true
	case OpZError:
		return 0, 0, op.Args[0], true
	case OpPauliChannel1:
		return op.Args[0], op.Args[1], op.Args[2], true
	}
	return 0, 0, 0, false
}

// composePauli returns the exact composition of two independent single-qubit
// Pauli channels applied back to back: the probability of each net Pauli is
// the convolution over the Pauli group (X·Y = Z and so on; phases are
// irrelevant to frame propagation).
func composePauli(ax, ay, az, bx, by, bz float64) (cx, cy, cz float64) {
	ai := 1 - ax - ay - az
	bi := 1 - bx - by - bz
	cx = ai*bx + ax*bi + ay*bz + az*by
	cy = ai*by + ay*bi + az*bx + ax*bz
	cz = ai*bz + az*bi + ax*by + ay*bx
	return
}

// fusePauli1 folds a single-qubit Pauli channel on q into the circuit's
// last op when that op is itself a single-qubit Pauli channel on the same
// qubit. The fused op's Args are carved fresh — never mutated in place — so
// payloads shared with an Append source stay intact. Reports whether the
// channel was absorbed.
func (c *Circuit) fusePauli1(q int, px, py, pz float64) bool {
	if len(c.Ops) == 0 {
		return false
	}
	last := &c.Ops[len(c.Ops)-1]
	if len(last.Targets) != 1 || last.Targets[0] != q {
		return false
	}
	ax, ay, az, ok := pauliTriple(last)
	if !ok {
		return false
	}
	cx, cy, cz := composePauli(ax, ay, az, px, py, pz)
	last.Code = OpPauliChannel1
	last.Args = c.carveFloats(cx, cy, cz)
	return true
}

// NewCircuit returns an empty circuit over n qubits.
func NewCircuit(n int) *Circuit {
	if n <= 0 {
		panic("stabsim: circuit needs n > 0")
	}
	return &Circuit{N: n}
}

// NumMeasurements returns the total number of measurement records produced.
func (c *Circuit) NumMeasurements() int { return c.numMeasurements }

// NumDetectors returns the number of DETECTOR annotations.
func (c *Circuit) NumDetectors() int { return c.numDetectors }

// NumObservables returns the number of distinct observable indices (max+1).
func (c *Circuit) NumObservables() int { return c.numObservables }

func (c *Circuit) checkQubits(qs ...int) {
	for _, q := range qs {
		if q < 0 || q >= c.N {
			panic(fmt.Sprintf("stabsim: qubit %d out of range [0,%d)", q, c.N))
		}
	}
}

// checkProbability panics unless p lies in [0, 1]. The samplers would
// otherwise read NaN or an out-of-range p as some other probability: a NaN
// readout flip, for one, flipped every other shot.
func checkProbability(p float64) {
	if !(p >= 0 && p <= 1) {
		panic(fmt.Sprintf("stabsim: noise probability %v outside [0, 1]", p))
	}
}

func (c *Circuit) gate1(code OpCode, qs ...int) *Circuit {
	c.checkQubits(qs...)
	c.Ops = append(c.Ops, Op{Code: code, Targets: c.carveInts(qs)})
	return c
}

func (c *Circuit) gate2(code OpCode, pairs ...int) *Circuit {
	if len(pairs)%2 != 0 {
		panic("stabsim: two-qubit gate needs an even number of targets")
	}
	c.checkQubits(pairs...)
	for i := 0; i < len(pairs); i += 2 {
		if pairs[i] == pairs[i+1] {
			panic("stabsim: two-qubit gate with identical targets")
		}
	}
	c.Ops = append(c.Ops, Op{Code: code, Targets: c.carveInts(pairs)})
	return c
}

// H appends Hadamards on the given qubits.
func (c *Circuit) H(qs ...int) *Circuit { return c.gate1(OpH, qs...) }

// S appends phase gates.
func (c *Circuit) S(qs ...int) *Circuit { return c.gate1(OpS, qs...) }

// SDag appends inverse phase gates.
func (c *Circuit) SDag(qs ...int) *Circuit { return c.gate1(OpSDag, qs...) }

// X appends Pauli X gates.
func (c *Circuit) X(qs ...int) *Circuit { return c.gate1(OpX, qs...) }

// Y appends Pauli Y gates.
func (c *Circuit) Y(qs ...int) *Circuit { return c.gate1(OpY, qs...) }

// Z appends Pauli Z gates.
func (c *Circuit) Z(qs ...int) *Circuit { return c.gate1(OpZ, qs...) }

// CX appends CNOTs on (control, target) pairs.
func (c *Circuit) CX(pairs ...int) *Circuit { return c.gate2(OpCX, pairs...) }

// CZ appends controlled-Z gates on pairs.
func (c *Circuit) CZ(pairs ...int) *Circuit { return c.gate2(OpCZ, pairs...) }

// Swap appends SWAP gates on pairs.
func (c *Circuit) Swap(pairs ...int) *Circuit { return c.gate2(OpSwap, pairs...) }

// M appends noiseless Z measurements, one record per qubit in order.
func (c *Circuit) M(qs ...int) *Circuit { return c.MFlip(0, qs...) }

// MFlip appends Z measurements whose classical outcome flips with
// probability p (readout error), one record per qubit in order.
func (c *Circuit) MFlip(p float64, qs ...int) *Circuit {
	c.checkQubits(qs...)
	checkProbability(p)
	c.Ops = append(c.Ops, Op{Code: OpM, Targets: c.carveInts(qs), Args: c.carveFloats(p)})
	c.numMeasurements += len(qs)
	return c
}

// MR appends measure-and-reset operations with flip probability p.
func (c *Circuit) MR(p float64, qs ...int) *Circuit {
	c.checkQubits(qs...)
	checkProbability(p)
	c.Ops = append(c.Ops, Op{Code: OpMR, Targets: c.carveInts(qs), Args: c.carveFloats(p)})
	c.numMeasurements += len(qs)
	return c
}

// R appends resets to |0⟩.
func (c *Circuit) R(qs ...int) *Circuit { return c.gate1(OpR, qs...) }

// Depolarize1 appends single-qubit depolarizing noise with probability p.
func (c *Circuit) Depolarize1(p float64, qs ...int) *Circuit {
	c.checkQubits(qs...)
	checkProbability(p)
	if p > 0 {
		if len(qs) == 1 && c.fusePauli1(qs[0], p/3, p/3, p/3) {
			return c
		}
		c.Ops = append(c.Ops, Op{Code: OpDepolarize1, Targets: c.carveInts(qs), Args: c.carveFloats(p)})
	}
	return c
}

// Depolarize2 appends two-qubit depolarizing noise on pairs.
func (c *Circuit) Depolarize2(p float64, pairs ...int) *Circuit {
	if len(pairs)%2 != 0 {
		panic("stabsim: Depolarize2 needs pairs")
	}
	c.checkQubits(pairs...)
	checkProbability(p)
	if p > 0 {
		c.Ops = append(c.Ops, Op{Code: OpDepolarize2, Targets: c.carveInts(pairs), Args: c.carveFloats(p)})
	}
	return c
}

// XError appends X errors with probability p.
func (c *Circuit) XError(p float64, qs ...int) *Circuit {
	c.checkQubits(qs...)
	checkProbability(p)
	if p > 0 {
		if len(qs) == 1 && c.fusePauli1(qs[0], p, 0, 0) {
			return c
		}
		c.Ops = append(c.Ops, Op{Code: OpXError, Targets: c.carveInts(qs), Args: c.carveFloats(p)})
	}
	return c
}

// YError appends Y errors with probability p.
func (c *Circuit) YError(p float64, qs ...int) *Circuit {
	c.checkQubits(qs...)
	checkProbability(p)
	if p > 0 {
		if len(qs) == 1 && c.fusePauli1(qs[0], 0, p, 0) {
			return c
		}
		c.Ops = append(c.Ops, Op{Code: OpYError, Targets: c.carveInts(qs), Args: c.carveFloats(p)})
	}
	return c
}

// ZError appends Z errors with probability p.
func (c *Circuit) ZError(p float64, qs ...int) *Circuit {
	c.checkQubits(qs...)
	checkProbability(p)
	if p > 0 {
		if len(qs) == 1 && c.fusePauli1(qs[0], 0, 0, p) {
			return c
		}
		c.Ops = append(c.Ops, Op{Code: OpZError, Targets: c.carveInts(qs), Args: c.carveFloats(p)})
	}
	return c
}

// PauliChannel1 appends an asymmetric Pauli channel (px, py, pz). Each
// component must be a probability and their sum at most 1.
func (c *Circuit) PauliChannel1(px, py, pz float64, qs ...int) *Circuit {
	c.checkQubits(qs...)
	checkProbability(px)
	checkProbability(py)
	checkProbability(pz)
	if px+py+pz > 1 {
		panic("stabsim: PauliChannel1 probabilities exceed 1")
	}
	if px > 0 || py > 0 || pz > 0 {
		if len(qs) == 1 && c.fusePauli1(qs[0], px, py, pz) {
			return c
		}
		c.Ops = append(c.Ops, Op{Code: OpPauliChannel1, Targets: c.carveInts(qs), Args: c.carveFloats(px, py, pz)})
	}
	return c
}

// Detector appends a detector over the given relative measurement records
// (−1 is the most recent measurement at this point in the circuit).
func (c *Circuit) Detector(recs ...int) *Circuit {
	c.checkRecs(recs)
	c.Ops = append(c.Ops, Op{Code: OpDetector, Recs: c.carveInts(recs)})
	c.numDetectors++
	return c
}

// Observable XORs the given relative records into logical observable idx.
func (c *Circuit) Observable(idx int, recs ...int) *Circuit {
	if idx < 0 {
		panic("stabsim: negative observable index")
	}
	c.checkRecs(recs)
	c.Ops = append(c.Ops, Op{Code: OpObservable, Recs: c.carveInts(recs), Index: idx})
	if idx+1 > c.numObservables {
		c.numObservables = idx + 1
	}
	return c
}

// Tick appends a no-op timing marker.
func (c *Circuit) Tick() *Circuit {
	c.Ops = append(c.Ops, Op{Code: OpTick})
	return c
}

func (c *Circuit) checkRecs(recs []int) {
	if len(recs) == 0 {
		panic("stabsim: annotation needs at least one record")
	}
	for _, r := range recs {
		if r >= 0 || -r > c.numMeasurements {
			panic(fmt.Sprintf("stabsim: record ref %d invalid with %d measurements so far", r, c.numMeasurements))
		}
	}
}

// Append concatenates the ops of other onto c. Both must have the same qubit
// count; other's relative record refs remain valid because they are relative.
func (c *Circuit) Append(other *Circuit) *Circuit {
	if other.N != c.N {
		panic("stabsim: Append qubit count mismatch")
	}
	c.Ops = append(c.Ops, other.Ops...)
	c.numMeasurements += other.numMeasurements
	c.numDetectors += other.numDetectors
	if other.numObservables > c.numObservables {
		c.numObservables = other.numObservables
	}
	return c
}
