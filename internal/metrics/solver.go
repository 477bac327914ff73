package metrics

import (
	"strconv"
	"time"
)

// Default bucket layouts for the solver histograms. LBD and backjump
// depth are small-integer distributions with long tails; per-SOLVE-call
// wall time spans microseconds (trivial windows late in the binary
// search) to minutes (the initial unconstrained solve).
var (
	LBDBuckets      = []int64{1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64, 96, 128}
	BackjumpBuckets = []int64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}
	// SolveCallMSBuckets are milliseconds.
	SolveCallMSBuckets = []int64{1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000, 30000, 60000, 300000}
)

// SolverMetrics bundles the standard metric set of the solve pipeline,
// one series per concern, all registered under the satalloc_ prefix. A
// nil *SolverMetrics is a valid disabled instrument: every Record method
// is a no-op and every hook constructor returns nil, so the layers below
// (sat, opt, core) pay one nil check when metrics are off — the same
// contract as obs.Tracer.
//
//satlint:nilsafe
type SolverMetrics struct {
	reg *Registry

	// SAT search counters, mirrored from the solver's cumulative Stats at
	// progress boundaries (restart/reduce/solve entry).
	Conflicts    *Counter
	Decisions    *Counter
	Propagations *Counter
	Restarts     *Counter
	LearntAdded  *Counter
	LearntPruned *Counter
	// Point-in-time search state.
	LearntDB   *Gauge
	TrailDepth *Gauge
	// Per-conflict learning quality.
	LBD      *Histogram
	Backjump *Histogram

	// Binary-search optimizer (opt.Minimize).
	SolveCalls    *Counter
	SolveCallMS   *Histogram
	BoundLower    *Gauge // L: proven lower bound (-1 until known)
	BoundUpper    *Gauge // R: best incumbent cost (-1 until known)
	BoundGap      *Gauge // R-L (-1 until both known)
	IncumbentCost *Gauge // current best model cost, any source (-1 until known)
	BudgetHits    *Counter

	// Propositional encoding (bv bit-blast with structural hashing).
	EncodeGatesRequested *Counter // gate requests made to the hash-consing layer
	EncodeGatesEmitted   *Counter // gates that allocated a fresh variable and clauses
	EncodeGatesFolded    *Counter // gates resolved by constant folding or operand identities
	EncodeGatesReused    *Counter // gates answered from the structural-hashing cache
	EncodeVars           *Gauge   // solver variables after the last bit-blast
	EncodeLiterals       *Gauge   // clause literals after the last bit-blast

	// core.Solve phases.
	SolvesStarted *Counter
	Panics        *Counter

	// Clause-sharing CDCL portfolio (sat.ParallelSolver).
	ParallelWorkers *Gauge   // configured portfolio size (0: sequential)
	SharedExported  *Counter // learnt clauses published to the exchange pool
	SharedImported  *Counter // shared clauses successfully integrated by other workers
	SharedFiltered  *Counter // shared clauses dropped (LBD/length bound, overflow, satisfied)
	WorkerDeaths    *Counter // portfolio workers lost to contained panics

	// Proof checking (internal/proof) and unsat-core explanation.
	ProofChecks    *Counter // proof-log replays completed by the checker
	ProofSteps     *Counter // proof steps replayed (inputs, learns, deletes, probes)
	ProofProbes    *Counter // assumption-refutation probes certified
	ProofCheckMS   *Gauge   // wall time of the last proof check in milliseconds
	ExplainSolves  *Counter // SAT probes spent extracting and minimizing cores
	ExplainSize    *Gauge   // constraint families in the last reported core
	ExplainMinimal *Gauge   // 1 when the last core was proven minimal, else 0
	ExplainMS      *Gauge   // wall time of the last core explanation in milliseconds
}

// NewSolverMetrics registers the standard solver metric set on r. A nil
// registry yields a nil (disabled) *SolverMetrics.
func NewSolverMetrics(r *Registry) *SolverMetrics {
	if r == nil {
		return nil
	}
	m := &SolverMetrics{
		reg:          r,
		Conflicts:    r.Counter("satalloc_sat_conflicts_total", "CDCL conflicts across all SOLVE calls", nil),
		Decisions:    r.Counter("satalloc_sat_decisions_total", "CDCL decisions across all SOLVE calls", nil),
		Propagations: r.Counter("satalloc_sat_propagations_total", "unit propagations across all SOLVE calls", nil),
		Restarts:     r.Counter("satalloc_sat_restarts_total", "solver restarts", nil),
		LearntAdded:  r.Counter("satalloc_sat_learnt_added_total", "learnt clauses recorded", nil),
		LearntPruned: r.Counter("satalloc_sat_learnt_pruned_total", "learnt clauses removed by DB reduction", nil),
		LearntDB:     r.Gauge("satalloc_sat_learnt_db_size", "current learnt-clause database size", nil),
		TrailDepth:   r.Gauge("satalloc_sat_trail_depth", "assigned literals at the last progress boundary", nil),
		LBD:          r.Histogram("satalloc_sat_lbd", "literal block distance of learnt clauses", LBDBuckets, nil),
		Backjump:     r.Histogram("satalloc_sat_backjump_levels", "decision levels undone per conflict", BackjumpBuckets, nil),

		SolveCalls:    r.Counter("satalloc_opt_solve_calls_total", "SOLVE invocations of the binary search", nil),
		SolveCallMS:   r.Histogram("satalloc_opt_solve_call_duration_ms", "wall time per SOLVE call in milliseconds", SolveCallMSBuckets, nil),
		BoundLower:    r.Gauge("satalloc_opt_bound_lower", "binary search proven lower bound L (-1: unknown)", nil),
		BoundUpper:    r.Gauge("satalloc_opt_bound_upper", "binary search incumbent cost R (-1: unknown)", nil),
		BoundGap:      r.Gauge("satalloc_opt_bound_gap", "binary search gap R-L (-1: unknown)", nil),
		IncumbentCost: r.Gauge("satalloc_opt_incumbent_cost", "cost of the best model found so far (-1: none)", nil),
		BudgetHits:    r.Counter("satalloc_opt_budget_hits_total", "SOLVE calls interrupted by a budget or cancellation", nil),

		EncodeGatesRequested: r.Counter("satalloc_encode_gates_requested_total", "gate requests made to the bit-blaster's hash-consing layer", nil),
		EncodeGatesEmitted:   r.Counter("satalloc_encode_gates_emitted_total", "gates emitted as fresh variables and clauses", nil),
		EncodeGatesFolded:    r.Counter("satalloc_encode_gates_folded_total", "gates resolved by constant folding or operand identities", nil),
		EncodeGatesReused:    r.Counter("satalloc_encode_gates_reused_total", "gates answered from the structural-hashing cache", nil),
		EncodeVars:           r.Gauge("satalloc_encode_vars", "solver variables after the last bit-blast", nil),
		EncodeLiterals:       r.Gauge("satalloc_encode_literals", "clause literals after the last bit-blast", nil),

		SolvesStarted: r.Counter("satalloc_core_solves_started_total", "core.Solve pipeline runs started", nil),
		Panics:        r.Counter("satalloc_core_panics_total", "panics contained at the core.Solve boundary", nil),

		ParallelWorkers: r.Gauge("satalloc_parallel_workers", "CDCL portfolio size (0: sequential)", nil),
		SharedExported:  r.Counter("satalloc_parallel_shared_exported_total", "learnt clauses published to the exchange pool", nil),
		SharedImported:  r.Counter("satalloc_parallel_shared_imported_total", "shared clauses integrated by other workers", nil),
		SharedFiltered:  r.Counter("satalloc_parallel_shared_filtered_total", "shared clauses dropped by LBD/length bound, overflow, or root subsumption", nil),
		WorkerDeaths:    r.Counter("satalloc_parallel_worker_deaths_total", "portfolio workers lost to contained panics", nil),

		ProofChecks:    r.Counter("satalloc_proof_checks_total", "proof-log replays completed by the internal checker", nil),
		ProofSteps:     r.Counter("satalloc_proof_steps_total", "proof steps replayed by the checker", nil),
		ProofProbes:    r.Counter("satalloc_proof_probes_total", "assumption-refutation probes certified", nil),
		ProofCheckMS:   r.Gauge("satalloc_proof_check_ms", "wall time of the last proof check in milliseconds", nil),
		ExplainSolves:  r.Counter("satalloc_core_explain_solves_total", "SAT probes spent on unsat-core extraction and minimization", nil),
		ExplainSize:    r.Gauge("satalloc_core_explain_size", "constraint families in the last reported core", nil),
		ExplainMinimal: r.Gauge("satalloc_core_explain_minimal", "1 when the last core was proven minimal, else 0", nil),
		ExplainMS:      r.Gauge("satalloc_core_explain_ms", "wall time of the last core explanation in milliseconds", nil),
	}
	m.BoundLower.Set(-1)
	m.BoundUpper.Set(-1)
	m.BoundGap.Set(-1)
	m.IncumbentCost.Set(-1)
	return m
}

// Registry returns the registry the metrics are registered on (nil on a
// disabled instrument).
func (m *SolverMetrics) Registry() *Registry {
	if m == nil {
		return nil
	}
	return m.reg
}

// SearchHook returns a stateful hook mirroring one solver's cumulative
// search counters into the registry as deltas. One hook must be created
// per solver instance: a fresh solver restarts its cumulative counters at
// zero, and per-hook state is what keeps the mirrored totals monotone
// across solver rebuilds (opt's fresh mode). Returns nil when m is nil.
func (m *SolverMetrics) SearchHook() func(conflicts, decisions, propagations, restarts, learntAdded, learntPruned int64, learnts, trail int) {
	if m == nil {
		return nil
	}
	var last struct{ conf, dec, prop, rest, ladd, lpru int64 }
	return func(conflicts, decisions, propagations, restarts, learntAdded, learntPruned int64, learnts, trail int) {
		m.Conflicts.Add(conflicts - last.conf)
		m.Decisions.Add(decisions - last.dec)
		m.Propagations.Add(propagations - last.prop)
		m.Restarts.Add(restarts - last.rest)
		m.LearntAdded.Add(learntAdded - last.ladd)
		m.LearntPruned.Add(learntPruned - last.lpru)
		last.conf, last.dec, last.prop = conflicts, decisions, propagations
		last.rest, last.ladd, last.lpru = restarts, learntAdded, learntPruned
		m.LearntDB.Set(int64(learnts))
		m.TrailDepth.Set(int64(trail))
	}
}

// EncodeHook returns a stateful hook mirroring one bit-blaster's
// cumulative gate counters into the registry as deltas. Like SearchHook,
// one hook must be created per blaster instance: a fresh blast restarts
// its counters at zero, and per-hook state keeps the mirrored totals
// monotone across encoder rebuilds (opt's fresh mode). The counters keep
// growing after the initial blast as the optimizer builds cost-probe
// circuits, so callers re-fire the hook at solve boundaries. Returns nil
// when m is nil.
func (m *SolverMetrics) EncodeHook() func(requested, emitted, folded, reused int64, vars int, literals int64) {
	if m == nil {
		return nil
	}
	var last struct{ req, emit, fold, reuse int64 }
	return func(requested, emitted, folded, reused int64, vars int, literals int64) {
		m.EncodeGatesRequested.Add(requested - last.req)
		m.EncodeGatesEmitted.Add(emitted - last.emit)
		m.EncodeGatesFolded.Add(folded - last.fold)
		m.EncodeGatesReused.Add(reused - last.reuse)
		last.req, last.emit, last.fold, last.reuse = requested, emitted, folded, reused
		m.EncodeVars.Set(int64(vars))
		m.EncodeLiterals.Set(literals)
	}
}

// ConflictHook returns the per-conflict observation hook for
// sat.Solver.OnConflict: LBD and backjump-depth histograms. Stateless, so
// one hook may be shared across solvers. Returns nil when m is nil.
func (m *SolverMetrics) ConflictHook() func(lbd, backjump, learntLen int) {
	if m == nil {
		return nil
	}
	return func(lbd, backjump, learntLen int) {
		m.LBD.Observe(int64(lbd))
		m.Backjump.Observe(int64(backjump))
	}
}

// RecordIter records one SOLVE call of the binary search.
func (m *SolverMetrics) RecordIter(d time.Duration, interrupted bool) {
	if m == nil {
		return
	}
	m.SolveCalls.Inc()
	m.SolveCallMS.Observe(d.Milliseconds())
	if interrupted {
		m.BudgetHits.Inc()
	}
}

// RecordBudgetHit counts a budget or cancellation that stopped the binary
// search between SOLVE calls, before the next one started.
func (m *SolverMetrics) RecordBudgetHit() {
	if m == nil {
		return
	}
	m.BudgetHits.Inc()
}

// RecordBounds publishes the binary search's current proven window [L,R].
func (m *SolverMetrics) RecordBounds(l, r int64) {
	if m == nil {
		return
	}
	m.BoundLower.Set(l)
	m.BoundUpper.Set(r)
	m.BoundGap.Set(r - l)
}

// RecordIncumbent publishes the cost of the best model found so far.
func (m *SolverMetrics) RecordIncumbent(cost int64) {
	if m == nil {
		return
	}
	m.IncumbentCost.Set(cost)
}

// RecordSolveStart counts a core.Solve pipeline run.
func (m *SolverMetrics) RecordSolveStart() {
	if m == nil {
		return
	}
	m.SolvesStarted.Inc()
}

// RecordSolveEnd counts a completed pipeline run, labelled by its status
// string ("optimal", "feasible", "infeasible", "aborted", "error").
func (m *SolverMetrics) RecordSolveEnd(status string) {
	if m == nil {
		return
	}
	m.reg.Counter("satalloc_core_solves_completed_total",
		"core.Solve pipeline runs completed, by outcome", Labels{"status": status}).Inc()
}

// RecordPanic counts a panic contained at the core.Solve boundary.
func (m *SolverMetrics) RecordPanic() {
	if m == nil {
		return
	}
	m.Panics.Inc()
}

// RecordParallelWorkers publishes the configured CDCL-portfolio size.
func (m *SolverMetrics) RecordParallelWorkers(n int) {
	if m == nil {
		return
	}
	m.ParallelWorkers.Set(int64(n))
}

// RecordShared adds one race's clause-exchange deltas: clauses published,
// integrated by an importer, and dropped along the way.
func (m *SolverMetrics) RecordShared(exported, imported, filtered int64) {
	if m == nil {
		return
	}
	m.SharedExported.Add(exported)
	m.SharedImported.Add(imported)
	m.SharedFiltered.Add(filtered)
}

// RecordWorkerConflicts adds one portfolio worker's conflict delta for a
// race, labelled by worker index.
func (m *SolverMetrics) RecordWorkerConflicts(worker int, conflicts int64) {
	if m == nil {
		return
	}
	m.reg.Counter("satalloc_parallel_worker_conflicts_total",
		"CDCL conflicts per portfolio worker", Labels{"worker": strconv.Itoa(worker)}).Add(conflicts)
}

// RecordWorkerWin counts a race won by the given portfolio worker.
func (m *SolverMetrics) RecordWorkerWin(worker int) {
	if m == nil {
		return
	}
	m.reg.Counter("satalloc_parallel_worker_wins_total",
		"races decided per portfolio worker", Labels{"worker": strconv.Itoa(worker)}).Inc()
}

// RecordProofCheck records one completed proof-certification pass: the
// steps replayed, the assumption probes certified, and the wall time.
func (m *SolverMetrics) RecordProofCheck(steps, probes int, d time.Duration) {
	if m == nil {
		return
	}
	m.ProofChecks.Inc()
	m.ProofSteps.Add(int64(steps))
	m.ProofProbes.Add(int64(probes))
	m.ProofCheckMS.Set(d.Milliseconds())
}

// RecordCoreExplain records one completed unsat-core explanation.
func (m *SolverMetrics) RecordCoreExplain(size, solves int, d time.Duration, minimal bool) {
	if m == nil {
		return
	}
	m.ExplainSolves.Add(int64(solves))
	m.ExplainSize.Set(int64(size))
	if minimal {
		m.ExplainMinimal.Set(1)
	} else {
		m.ExplainMinimal.Set(0)
	}
	m.ExplainMS.Set(d.Milliseconds())
}

// RecordWorkerDeath counts a portfolio worker lost to a contained panic.
func (m *SolverMetrics) RecordWorkerDeath() {
	if m == nil {
		return
	}
	m.WorkerDeaths.Inc()
}
