package distill

import (
	"math"
	"math/rand"

	"hetarch/internal/cell"
	"hetarch/internal/sched"
)

// Config parameterizes one entanglement-distillation module simulation.
// Times are microseconds, rates kHz, matching the paper's Section 4.1 setup.
type Config struct {
	Seed int64

	// Heterogeneous selects storage-backed memories (lifetime Ts). The
	// homogeneous baseline stores pairs on compute devices (lifetime Tc).
	Heterogeneous bool
	TsMicros      float64 // storage lifetime per mode
	TcMicros      float64 // compute lifetime

	InputSlots  int // input memory capacity (2 Registers × 3 modes = 6)
	OutputSlots int // output memory capacity (1 Register × 3 modes = 3)

	GenRateKHz    float64 // mean EP generation rate
	RawInfidelity float64 // infidelity of freshly generated EPs (Werner)

	TargetFidelity float64 // distillation target (paper: 0.995)

	// RoutingSwaps is the number of lattice SWAPs (3 CNOTs each) needed to
	// bring two pairs adjacent before each round. Zero for the
	// heterogeneous module (the ParCheck cell is directly coupled to the
	// memories); positive for the homogeneous sea-of-qubits baseline,
	// where pairs must be routed across the lattice.
	RoutingSwaps int

	// Distillers is the number of DEJMPS rounds that may run concurrently
	// (1 for the heterogeneous module's single ParCheck cell; the
	// homogeneous sea-of-qubits baseline may use as many as it needs).
	Distillers int

	SwapTime    float64 // µs, load/store between memory and compute
	GateTime    float64 // µs, two-qubit gate
	OneQTime    float64 // µs, single-qubit gate
	ReadoutTime float64 // µs
	GateError   float64 // two-qubit gate depolarizing error (0 = coherence-limited)

	// ConsumeAtThreshold frees an output slot as soon as a pair reaches the
	// target (rate-measurement mode, Fig. 4). When false, delivered pairs
	// decay in the output register (trace mode, Fig. 3).
	ConsumeAtThreshold bool

	// TraceInterval > 0 records the best output-pair infidelity every
	// interval (Fig. 3).
	TraceInterval float64
}

// DefaultConfig returns the paper's baseline parameters for the
// heterogeneous module with Ts in milliseconds.
func DefaultConfig(tsMillis float64, heterogeneous bool) Config {
	// The heterogeneous module uses a single ParCheck distillation cell
	// (found sufficient in the paper's capacity sweep). The homogeneous
	// baseline is a sea of qubits "as large as needed", so it is not
	// distiller-limited.
	distillers := 1
	routingSwaps := 0
	if !heterogeneous {
		// Sea of qubits, as large as needed: distillation rounds can run in
		// parallel, but each round pays lattice routing to bring the two
		// pairs together (cf. the Qiskit-transpiled baseline).
		distillers = 2
		routingSwaps = 1
	}
	return Config{
		Heterogeneous:  heterogeneous,
		TsMicros:       tsMillis * 1000,
		TcMicros:       500,
		InputSlots:     6,
		OutputSlots:    3,
		Distillers:     distillers,
		RoutingSwaps:   routingSwaps,
		GenRateKHz:     1000,
		RawInfidelity:  0.02,
		TargetFidelity: 0.995,
		SwapTime:       0.1,
		GateTime:       0.1,
		OneQTime:       0.04,
		ReadoutTime:    1,
		GateError:      0,
	}
}

// TracePoint is one sample of the Fig. 3 time series.
type TracePoint struct {
	Time           float64 // µs
	BestInfidelity float64 // best output pair (1 if none)
}

// Stats accumulates module metrics over a run.
type Stats struct {
	Generated     int // EPs produced by the source
	Stored        int // EPs accepted into input memory
	DroppedFull   int // EPs lost to full input memory
	Attempts      int // distillation rounds started
	Successes     int // rounds that kept a pair
	Delivered     int // pairs at/above target placed in output
	Trace         []TracePoint
	HorizonMicros float64
}

// DeliveredRatePerSecond returns delivered pairs per second of simulated
// time.
func (s Stats) DeliveredRatePerSecond() float64 {
	if s.HorizonMicros <= 0 {
		return 0
	}
	return float64(s.Delivered) / (s.HorizonMicros * 1e-6)
}

type storedPair struct {
	pair       Pair
	lastUpdate float64
	rounds     int  // distillation rounds survived
	used       bool // false marks a free slot
}

// pendingRound is a DEJMPS round whose gate phase is still running.
type pendingRound struct {
	predicted Pair
	pSucc     float64
	rounds    int // depth of the output pair
}

// Module is the entanglement-distillation module simulator: input memory,
// one distillation unit (ParCheck cell), output memory, and the greedy
// scheduler of Section 4.1.
type Module struct {
	cfg Config
	sim *sched.Sim
	rng *rand.Rand

	input  []storedPair // fixed-size slot arrays
	output []storedPair

	// lifetime is the T1 = T2 of every memory slot; idleDt caches the last
	// interval refresh decayed over and idlePx/Py/Pz its Pauli channel, since
	// every event brings all stored pairs up to the same time.
	lifetime                       float64
	idleDt, idlePx, idlePy, idlePz float64

	// The event callbacks are bound once so that scheduling allocates
	// nothing; rounds holds the gate phases in flight, oldest first.
	horizon                                   float64
	onArrivalFn, onGatesDoneFn, onUnitFreedFn func()
	rounds                                    []pendingRound

	busyDistillers int
	stats          Stats
}

// NewModule prepares a simulation.
func NewModule(cfg Config) *Module {
	if cfg.InputSlots <= 1 || cfg.OutputSlots < 1 {
		panic("distill: need at least 2 input slots and 1 output slot")
	}
	if cfg.Distillers < 1 {
		cfg.Distillers = 1
	}
	m := &Module{
		cfg:    cfg,
		sim:    &sched.Sim{},
		rng:    rand.New(rand.NewSource(cfg.Seed)),
		input:  make([]storedPair, cfg.InputSlots),
		output: make([]storedPair, cfg.OutputSlots),
	}
	m.lifetime = m.memoryLifetime()
	m.onArrivalFn = m.onArrival
	m.onGatesDoneFn = m.onGatesDone
	m.onUnitFreedFn = m.onUnitFreed
	return m
}

// memoryLifetime returns the T1 = T2 of a memory slot under the
// architecture choice.
func (m *Module) memoryLifetime() float64 {
	if m.cfg.Heterogeneous {
		return m.cfg.TsMicros
	}
	return m.cfg.TcMicros
}

// refresh applies lazy decoherence to a stored pair up to the current time.
// Both halves decay with the memory lifetime (symmetric nodes): exactly
// sp.pair.Decohere(dt, T, T, T, T), with the idle channel reused while dt
// repeats.
func (m *Module) refresh(sp *storedPair) {
	now := m.sim.Now()
	dt := now - sp.lastUpdate
	if dt <= 0 {
		return
	}
	if t := m.lifetime; t > 0 {
		if dt != m.idleDt {
			m.idleDt = dt
			m.idlePx, m.idlePy, m.idlePz = idlePauli(dt, t, t)
		}
		px, py, pz := m.idlePx, m.idlePy, m.idlePz
		sp.pair.P = applyPauliOneSide(applyPauliOneSide(sp.pair.P, px, py, pz), px, py, pz)
	}
	sp.lastUpdate = now
}

// distillOpTime is the duration of one DEJMPS round on the ParCheck cell:
// two loads, local rotations, bilateral CNOT, readout.
func (m *Module) distillOpTime() float64 {
	return 2*m.cfg.SwapTime + m.cfg.OneQTime + m.cfg.GateTime + m.cfg.ReadoutTime
}

// gatePhase is the part of a round after which the surviving pair is back in
// memory: the SWAPs and gates, plus lattice routing for the homogeneous
// baseline.
func (m *Module) gatePhase() float64 {
	return 2*m.cfg.SwapTime + m.cfg.OneQTime + m.cfg.GateTime +
		float64(m.cfg.RoutingSwaps)*3*m.cfg.GateTime
}

// Run simulates the module for the given horizon (µs) and returns the
// accumulated statistics.
func (m *Module) Run(horizonMicros float64) Stats {
	m.stats = Stats{HorizonMicros: horizonMicros}
	m.horizon = horizonMicros
	m.scheduleArrival()
	if m.cfg.TraceInterval > 0 {
		m.scheduleTrace()
	}
	m.sim.RunUntil(horizonMicros)
	return m.stats
}

func (m *Module) scheduleArrival() {
	// Exponential inter-arrival with mean 1/rate. Rates are kHz = events
	// per millisecond; convert to events per µs.
	ratePerMicro := m.cfg.GenRateKHz / 1000.0
	dt := m.rng.ExpFloat64() / ratePerMicro
	t := m.sim.Now() + dt
	if t > m.horizon {
		return
	}
	m.sim.At(t, m.onArrivalFn)
}

func (m *Module) onArrival() {
	m.stats.Generated++
	m.acceptPair(NewWernerPair(1 - m.cfg.RawInfidelity))
	m.schedule()
	m.scheduleArrival()
}

func (m *Module) scheduleTrace() {
	var tick func()
	tick = func() {
		m.stats.Trace = append(m.stats.Trace, TracePoint{
			Time:           m.sim.Now(),
			BestInfidelity: m.BestOutputInfidelity(),
		})
		if m.sim.Now()+m.cfg.TraceInterval <= m.horizon {
			m.sim.After(m.cfg.TraceInterval, tick)
		}
	}
	m.sim.At(0, tick)
}

// acceptPair stores an incoming EP in input memory (priority 4). When the
// memory is full, the incoming pair overwrites the worst stored pair if it
// is better (stale low-quality pairs must not clog the register forever);
// otherwise the incoming pair is dropped.
func (m *Module) acceptPair(p Pair) {
	worst, worstF := -1, 2.0
	for i := range m.input {
		s := &m.input[i]
		if !s.used {
			*s = storedPair{pair: p, lastUpdate: m.sim.Now(), used: true}
			m.stats.Stored++
			return
		}
		m.refresh(s)
		if f := s.pair.Fidelity(); f < worstF {
			worstF = f
			worst = i
		}
	}
	if worst >= 0 && p.Fidelity() > worstF {
		m.input[worst] = storedPair{pair: p, lastUpdate: m.sim.Now(), used: true}
		m.stats.Stored++
		m.stats.DroppedFull++ // the evicted pair counts as a loss
		return
	}
	m.stats.DroppedFull++
}

// BestOutputInfidelity reports the lowest infidelity among output pairs
// after refreshing them to the current time (1 when the register is empty).
func (m *Module) BestOutputInfidelity() float64 {
	best := 1.0
	for i := range m.output {
		s := &m.output[i]
		if !s.used {
			continue
		}
		m.refresh(s)
		if inf := s.pair.Infidelity(); inf < best {
			best = inf
		}
	}
	return best
}

// schedule runs the greedy scheduler: (1) re-distill stored pairs when it
// improves them, (2) move threshold pairs to output, (3) distill fresh
// pairs, (4) storing of incoming pairs happens in acceptPair.
// Priorities (1) and (3) collapse into one rule because both pick the two
// best available pairs and require predicted improvement.
func (m *Module) schedule() {
	// Refresh all stored pairs to now.
	for i := range m.input {
		if m.input[i].used {
			m.refresh(&m.input[i])
		}
	}

	// Priority 2: move pairs at/above target into output memory.
	for i := range m.input {
		s := &m.input[i]
		if !s.used || s.pair.Fidelity() < m.cfg.TargetFidelity {
			continue
		}
		if m.deliver(*s) {
			s.used = false
		}
	}

	for m.busyDistillers < m.cfg.Distillers {
		if !m.startBestDistillation() {
			return
		}
	}
}

// startBestDistillation picks and launches the best available distillation
// round, returning false when no improving combination exists.
func (m *Module) startBestDistillation() bool {

	// Priorities 1+3: recurrence scheduling. Combining a well-distilled
	// pair with a fresh one saturates below the target (entanglement
	// pumping), so only pairs from the same distillation round are
	// combined — the binary-tree recurrence DEJMPS converges under. Among
	// equal-round combinations the one with the highest predicted output
	// fidelity wins; existing distilled pairs (higher rounds) take priority
	// over fresh ones, implementing the paper's priority (1) before (3).
	a, b := -1, -1
	bestRounds, bestPred := -1, -1.0
	for i := range m.input {
		if !m.input[i].used {
			continue
		}
		for j := i + 1; j < len(m.input); j++ {
			if !m.input[j].used || m.input[j].rounds != m.input[i].rounds {
				continue
			}
			pi, pj := m.input[i].pair, m.input[j].pair
			pred, ps := DEJMPS(pi, pj, m.cfg.GateError)
			if ps <= 0 {
				continue
			}
			if pred.Fidelity() <= math.Max(pi.Fidelity(), pj.Fidelity()) {
				continue // no improvement (priority-1 guard)
			}
			r := m.input[i].rounds
			if r > bestRounds || (r == bestRounds && pred.Fidelity() > bestPred) {
				bestRounds = r
				bestPred = pred.Fidelity()
				a, b = i, j
			}
		}
	}
	if a < 0 {
		return false
	}
	pa, pb := m.input[a].pair, m.input[b].pair
	predicted, pSucc := DEJMPS(pa, pb, m.cfg.GateError)
	rounds := m.input[a].rounds + 1 // both inputs are at the same depth
	m.input[a].used, m.input[b].used = false, false
	m.busyDistillers++
	m.stats.Attempts++
	// The round pipelines: the surviving pair is back in memory once the
	// SWAPs and gates are done (gate phase); the distillation unit's
	// readout ancilla stays busy for the full round. Classical
	// communication is neglected (as in the paper), so the success of the
	// round is resolved when the pair is released — retroactive discard
	// under pipelining is statistically identical.
	//
	// Every gate phase lasts the same gatePhase() and floating-point
	// addition is monotone, so gate phases end in the order they began
	// (equal end times fire in scheduling order): onGatesDone takes the
	// oldest entry of m.rounds.
	m.rounds = append(m.rounds, pendingRound{predicted: predicted, pSucc: pSucc, rounds: rounds})
	m.sim.After(m.gatePhase(), m.onGatesDoneFn)
	m.sim.After(m.distillOpTime(), m.onUnitFreedFn)
	return true
}

// onGatesDone resolves the oldest round in flight when its gate phase ends.
func (m *Module) onGatesDone() {
	r := m.rounds[0]
	m.rounds = append(m.rounds[:0], m.rounds[1:]...)
	if m.rng.Float64() < r.pSucc {
		m.stats.Successes++
		// The surviving pair idles on compute devices while the gates
		// run; afterwards it rests in memory (storage for the
		// heterogeneous design, a compute qubit for the homogeneous
		// baseline — exactly where the heterogeneous design wins).
		out := r.predicted.Decohere(m.gatePhase(),
			m.cfg.TcMicros, m.cfg.TcMicros, m.cfg.TcMicros, m.cfg.TcMicros)
		sp := storedPair{pair: out, lastUpdate: m.sim.Now(), rounds: r.rounds, used: true}
		if out.Fidelity() >= m.cfg.TargetFidelity && m.deliver(sp) {
			// delivered directly
		} else {
			m.storeBack(sp)
		}
	}
	m.schedule()
}

// onUnitFreed releases the distillation unit at the end of a round.
func (m *Module) onUnitFreed() {
	m.busyDistillers--
	m.schedule()
}

// deliver places a threshold-quality pair into the output register. When
// the register is full, the freshly distilled pair replaces the worst
// stored output pair if it is better (the output register always offers the
// best pairs produced so far); it returns false only when the pair is worse
// than everything already stored.
func (m *Module) deliver(sp storedPair) bool {
	worst, worstF := -1, 2.0
	for i := range m.output {
		s := &m.output[i]
		if !s.used {
			m.stats.Delivered++
			if m.cfg.ConsumeAtThreshold {
				return true // consumed immediately; slot stays free
			}
			*s = sp
			return true
		}
		m.refresh(s)
		if f := s.pair.Fidelity(); f < worstF {
			worstF = f
			worst = i
		}
	}
	if worst >= 0 && sp.pair.Fidelity() > worstF {
		m.output[worst] = sp
		m.stats.Delivered++
		return true
	}
	return false
}

// storeBack returns a distilled-but-below-target pair to input memory for
// further rounds. When the memory has meanwhile filled with fresh arrivals,
// the worst stored pair is evicted — a distilled pair embodies several raw
// pairs of work and must not be displaced by raw inflow.
func (m *Module) storeBack(sp storedPair) {
	worst, worstF := -1, 2.0
	for i := range m.input {
		s := &m.input[i]
		if !s.used {
			*s = sp
			return
		}
		m.refresh(s)
		if f := s.pair.Fidelity(); f < worstF {
			worstF = f
			worst = i
		}
	}
	if worst >= 0 && sp.pair.Fidelity() > worstF {
		m.input[worst] = sp
		m.stats.DroppedFull++ // the evicted pair counts as a loss
		return
	}
	m.stats.DroppedFull++
}

// ConfigFromCells derives the module configuration from characterized
// standard cells — the HetArch hierarchy in action: the Register and
// ParCheck characterizations (produced once by density-matrix simulation)
// fix the load/store timing, gate timing, readout timing and the two-qubit
// gate error; the memory lifetime is recovered from the register's
// per-microsecond idle fidelity.
//
// registerChar must provide ops "load" and "idle-1us"; parcheckChar must
// provide "2q-gate", "1q-gate" and "readout" (as produced by
// cell.CharacterizeRegister and cell.CharacterizeParCheck).
func ConfigFromCells(registerChar, parcheckChar *cell.Characterization, heterogeneous bool) Config {
	load := registerChar.MustOp("load")
	idle := registerChar.MustOp("idle-1us")
	g2 := parcheckChar.MustOp("2q-gate")
	g1 := parcheckChar.MustOp("1q-gate")
	ro := parcheckChar.MustOp("readout")

	// Recover the storage lifetime from the per-µs idle fidelity: the
	// twirled idle error over 1 µs is ≈ (3/4)·(1 − e^{−1/T}) ≈ 0.75/T.
	perUs := idle.ErrorRate()
	tsMicros := 1e9 // effectively noiseless fallback
	if perUs > 0 {
		tsMicros = 0.75 / perUs
	}

	cfg := DefaultConfig(tsMicros/1000, heterogeneous)
	cfg.SwapTime = load.Duration
	cfg.GateTime = g2.Duration
	cfg.OneQTime = g1.Duration
	cfg.ReadoutTime = ro.Duration
	cfg.GateError = g2.ErrorRate()
	return cfg
}
