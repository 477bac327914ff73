// Package opt implements §5.2 of Metzner et al. (IPDPS 2006): the SOLVE
// function over bit-blasted integer constraint systems and the BIN_SEARCH
// scheme that minimizes the cost variable, plus the incremental variant
// sketched in §7 that retains the SAT solver's learned clauses between the
// binary-search iterations (reported there to give a ≥2x speedup).
package opt

import (
	"context"
	"fmt"
	"time"

	"satalloc/internal/bv"
	"satalloc/internal/encode"
	"satalloc/internal/flightrec"
	"satalloc/internal/ir"
	"satalloc/internal/metrics"
	"satalloc/internal/model"
	"satalloc/internal/obs"
	"satalloc/internal/proof"
	"satalloc/internal/rta"
	"satalloc/internal/sat"
)

// Status is the outcome of a minimization run.
type Status int

// Outcomes, ordered by the degradation ladder: an interrupted search
// downgrades Optimal to Feasible (incumbent with a proven gap) or, when no
// model was found yet, to Aborted.
const (
	// Optimal means the returned cost is the proven minimum.
	Optimal Status = iota
	// Infeasible means no allocation satisfies the constraints.
	Infeasible
	// Aborted means the search was interrupted — conflict budget,
	// deadline, or context cancellation — before any model was found; no
	// allocation is available.
	Aborted
	// Feasible means the search was interrupted after at least one model
	// was found: Allocation holds the best incumbent, Cost its verified
	// value R, and LowerBound the proven L with L ≤ optimum ≤ R (a
	// bounded-suboptimality gap).
	Feasible
)

func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Aborted:
		return "aborted"
	case Feasible:
		return "feasible"
	}
	return fmt.Sprintf("Status(%d)", int(s))
}

// Options tunes the optimizer.
type Options struct {
	// Incremental keeps one SAT solver alive across all SOLVE calls,
	// confining the cost window with assumption literals so learned
	// clauses carry over (§7). When false, every SOLVE call builds a
	// fresh solver over a fresh bit-blast of the formula — the baseline
	// "sequence of calls to a SAT checker" of §1.
	Incremental bool
	// MaxConflictsPerCall bounds each SOLVE call; 0 means unlimited.
	MaxConflictsPerCall int64
	// Proof enables DRAT-modulo-PB proof logging: every solver the run
	// compiles records its inference trace, and finish replays the logs
	// through the internal checker so each UNSAT verdict — including the
	// final optimality probe of the binary search — carries a
	// machine-checked certificate in Result.Certificate. Proof logging is
	// sequential-only: clauses imported from a portfolio peer are justified
	// by the peer's derivation, which this solver's log cannot replay, so
	// Proof with Workers ≥ 2 is rejected up front.
	Proof bool
	// Workers sets the clause-sharing CDCL portfolio size for each SOLVE
	// call: Workers ≥ 2 races that many diversified workers and the first
	// definitive verdict wins; Workers ≤ 1 (including the zero value)
	// keeps the single sequential solver, bit-for-bit identical to the
	// pre-portfolio behavior. In incremental mode the workers stay alive
	// across all SOLVE calls, each retaining its own and imported learnt
	// clauses; in fresh mode the portfolio is rebuilt per call like the
	// solver itself.
	Workers int
	// SkipVerify turns off the re-check of the decoded allocation with the
	// independent response-time analyzer. Minimize runs that check by
	// default and fails loudly on disagreement; skip it only in benchmarks
	// of raw solve time.
	SkipVerify bool
	// Logf, when set, receives progress lines.
	Logf func(format string, args ...any)
	// Trace, when set, is the parent span under which the optimizer
	// records its BitBlast/Solve[i]/Decode/Verify phases. Nil disables
	// tracing.
	Trace *obs.Span
	// Progress, when set, is installed as the SAT solver's OnProgress
	// hook, reporting search counters at restart and clause-DB-reduction
	// boundaries. Nil disables it. When Metrics or Recorder are also set,
	// the hooks are teed; the solver still sees a single callback.
	Progress func(sat.Progress)
	// Metrics, when set, receives live search counters (mirrored at
	// progress boundaries), per-conflict LBD/backjump observations, and
	// the binary search's bounds/incumbent/iteration series. Nil disables
	// it at the cost of one nil check per boundary.
	Metrics *metrics.SolverMetrics
	// Recorder, when set, is the flight recorder receiving restart,
	// reduction, iteration, bounds, incumbent, and budget events. Nil
	// disables it.
	Recorder *flightrec.Recorder
	// OnImprove, when set, is invoked from the search goroutine whenever
	// the binary search's view of the answer improves: after the initial
	// model and after every window move, with the proven bounds [lower,
	// upper]. The incumbent's cost is always upper (R is by construction
	// the cost of a model already in hand). The allocation service streams
	// these to job watchers; keep the callback fast and non-blocking.
	OnImprove func(lower, upper int64)
	// Ctx, when set, makes the whole binary search cancellable: its
	// cancellation or deadline is polled by the SAT solver at restart and
	// conflict-batch boundaries, and the search degrades to a Feasible
	// (incumbent + gap) or Aborted result within one such boundary. Nil
	// means never cancelled.
	Ctx context.Context
	// Observe, when set, receives each compiled solver system just after
	// it is built (once in incremental mode, per SOLVE call in fresh
	// mode). The panic-containment layer uses it to dump the formula that
	// was being solved into the repro bundle.
	Observe func(*bv.System)
	// Incumbent, when set, warm-starts the binary search from a heuristic
	// incumbent (core passes the greedy first-fit answer). Its decision
	// values become the solver's saved phases, with their variables'
	// activity bumped so they are decided first, and the first SOLVE call
	// is bounded by its cost: SOLVE(φ ∧ cost ≤ c) replaces SOLVE(φ). The
	// incumbent itself is never returned; every result still comes from a
	// SAT model that passes verify. A nil Allocation searches cold, but
	// the WarmStart span still records that the heuristic found nothing.
	Incumbent *Incumbent
	// ObserveProof, when set together with Proof, receives each proof log
	// just after its solver is created — before any step is recorded. The
	// panic-containment layer uses it to dump the in-progress inference
	// trace into the repro bundle.
	ObserveProof func(*proof.Log)
}

// Incumbent is the outcome of a heuristic run before the search: a
// feasible allocation and its cost under the encoding's objective, or a
// nil Allocation when the heuristic found none.
type Incumbent struct {
	Allocation *model.Allocation
	Cost       int64
}

// IterStats records one SOLVE call of the binary search — the
// per-iteration effort behind the paper's §7 incremental-speedup claim.
type IterStats struct {
	// Call is the 1-based SOLVE invocation index.
	Call int
	// Lo and Hi bound the cost window assumed for this call; -1 means the
	// side was unconstrained (the initial SOLVE(φ), whose upper side a warm
	// start bounds).
	Lo, Hi int64
	// Status is the solver's verdict for this window.
	Status sat.Status
	// Cost is the model's cost when Status is Sat, else -1.
	Cost int64
	// Conflicts and Decisions are this call's effort *delta* (not the
	// solver's cumulative counters).
	Conflicts int64
	Decisions int64
	// GatesBuilt and GatesReused are the encode-side effort of this call:
	// gate circuits freshly emitted versus answered by the bit-blaster's
	// structural-hashing cache while building this call's cost-bound
	// probes — plus, in fresh (non-incremental) mode, the full re-encode
	// of the formula the call had to pay for. Incremental mode reuses the
	// hashed gate graph across probes, and a cost bound is a selector with
	// two PB rows, not a circuit, so GatesBuilt is 0 there; that contrast
	// is the encode-side half of the §7 incremental-speedup claim.
	GatesBuilt  int64
	GatesReused int64
	Duration    time.Duration
}

// Result reports the minimization outcome.
type Result struct {
	Status Status
	Cost   int64
	// LowerBound is the proven lower bound L on the optimal cost: equal to
	// Cost for Optimal, ≤ Cost for Feasible (the difference is the
	// suboptimality gap), and the bound established so far for Aborted.
	// Meaningless for Infeasible.
	LowerBound int64
	Allocation *model.Allocation
	Assignment *ir.Assignment
	// SolveCalls counts the SOLVE invocations of the binary search.
	SolveCalls int
	// Vars and Literals describe the propositional encoding (the "Var."
	// and "Lit." columns of the paper's tables). In incremental mode this
	// is the single shared solver; otherwise the first solve's encoding.
	Vars     int
	Literals int64
	// Conflicts and Decisions aggregate CDCL effort across all calls
	// (per-call deltas summed; in incremental mode this equals the shared
	// solver's final cumulative counters).
	Conflicts int64
	Decisions int64
	Duration  time.Duration
	// Iters is the per-SOLVE-call search history.
	Iters []IterStats
	// SolverStats is the final cumulative counter snapshot of the SAT
	// solver (the shared solver in incremental mode, the last fresh one
	// otherwise).
	SolverStats sat.Stats
	// Certificate is the checked proof artifact when Options.Proof was
	// set: every log the run produced, already replayed by the internal
	// checker. Nil without Proof.
	Certificate *proof.Certificate
	// Core names the spec-level constraint families responsible for an
	// Infeasible verdict. Minimize never fills it — core extraction needs
	// the selector-guarded encoding — but callers that follow an
	// Infeasible result with ExplainInfeasible (see core.SolveContext)
	// attach the report here so it travels with the verdict.
	Core *CoreReport
}

func (o *Options) logf(format string, args ...any) {
	if o.Logf != nil {
		o.Logf(format, args...)
	}
}

// Minimize runs BIN_SEARCH over the encoding's cost variable:
//
//	L := 0; R := SOLVE(φ)
//	while L < R:
//	    M := (L+R) div 2
//	    K := SOLVE(φ ∧ cost ≥ L ∧ cost ≤ M)
//	    if K = −1 then L := M+1 else R := K
//
// (The paper's pseudo-code sets L := M on failure; with integer division
// that cannot terminate when R = L+1, so the implementation uses the
// intended L := M+1 — the window [L,M] was proven empty.) R always holds
// the cost of a model already found, so on termination R is the optimum
// and its model the witness.
//
// With opts.Incumbent of cost c, the first call is R := SOLVE(φ ∧ cost ≤ c)
// under the incumbent's hinted decisions. If that window is empty, no
// model costs ≤ c, so L := c+1 and R := SOLVE(φ ∧ cost ≥ L) takes its
// place; only when that is empty too is the formula infeasible.
//
// Minimize is anytime: when opts.Ctx is cancelled, its deadline expires,
// or a SOLVE call exhausts MaxConflictsPerCall mid-search, the incumbent
// model and the proven window survive as a Feasible result instead of
// being discarded (Aborted is returned only when no model was found at
// all). The whole search is recorded under a "Minimize" span whose
// outcome attribute distinguishes ok/degraded/cancelled/error.
func Minimize(enc *encode.Encoding, opts Options) (*Result, error) {
	sp := opts.Trace.Child("Minimize")
	opts.Trace = sp
	res, err := minimize(enc, opts)
	switch {
	case err != nil:
		sp.Outcome(obs.OutcomeError).Attr("error", err.Error())
	case res.Status == Feasible:
		sp.Outcome(obs.OutcomeDegraded).
			Attr("cost", res.Cost).Attr("lower_bound", res.LowerBound)
	case res.Status == Aborted:
		sp.Outcome(obs.OutcomeCancelled)
	default:
		sp.Outcome(obs.OutcomeOK)
	}
	sp.End()
	return res, err
}

func minimize(enc *encode.Encoding, opts Options) (*Result, error) {
	start := time.Now()
	res := &Result{}
	ctx := opts.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	stop := func() bool { return ctx.Err() != nil }
	if opts.Proof && opts.Workers >= 2 {
		return nil, fmt.Errorf("opt: proof logging requires a sequential solver (Workers=%d): clauses shared between portfolio workers are not RUP in the importer's log", opts.Workers)
	}

	type solveOut struct {
		status sat.Status
		cost   int64
		assign *ir.Assignment
	}

	var sys *bv.System
	var par *sat.ParallelSolver
	var lastShared sat.ParallelStats
	// curSolveSpan is the Solve[i] span of the race in flight; worker
	// callbacks (which run on the worker goroutines) hang their spans off
	// it. Written before each race starts, so the goroutine-creation
	// ordering makes it safe to read from the workers.
	var curSolveSpan *obs.Span
	workerSpans := make([]*obs.Span, opts.Workers)
	// One proof log per compiled solver: incremental mode certifies the
	// whole run with a single log, fresh mode with one log per SOLVE call.
	var proofLogs []*proof.Log
	// One encode-metrics hook per compiled blaster (its delta state must
	// restart with the blaster's counters), re-fired after every solve to
	// pick up the cost-probe selectors and rows added since.
	var encHook func(requested, emitted, folded, reused int64, vars int, literals int64)
	reportEncode := func() {
		if encHook == nil {
			return
		}
		st := sys.B.Stats()
		encHook(st.GatesRequested, st.GatesEmitted, st.GatesFolded, st.GatesReused(),
			sys.S.NumVariables(), sys.S.Stats.NumLiterals)
	}
	compile := func() error {
		s := sat.New()
		if opts.Proof {
			lg := proof.NewLog()
			if err := s.SetProofLogger(lg); err != nil {
				return err
			}
			proofLogs = append(proofLogs, lg)
			if opts.ObserveProof != nil {
				opts.ObserveProof(lg)
			}
		}
		var err error
		sys, err = bv.CompileIntoWith(s, enc.F, bv.Options{Trace: opts.Trace})
		if err != nil {
			return err
		}
		sys.S.MaxConflicts = opts.MaxConflictsPerCall
		// A fresh MetricsProgress hook per compile: its delta state must
		// restart with the solver's counters (fresh mode rebuilds both).
		sys.S.OnProgress = obs.TeeProgress(opts.Progress,
			obs.MetricsProgress(opts.Metrics), obs.FlightProgress(opts.Recorder))
		sys.S.OnConflict = opts.Metrics.ConflictHook()
		sys.S.Stop = stop
		if res.Vars == 0 {
			res.Vars = sys.S.NumVariables()
			res.Literals = sys.S.Stats.NumLiterals
		}
		encHook = opts.Metrics.EncodeHook()
		reportEncode()
		if opts.Observe != nil {
			opts.Observe(sys)
		}
		if opts.Workers >= 2 {
			par, err = sat.NewParallel(sys.S, sat.ParallelOptions{
				Workers: opts.Workers,
				Stop:    stop,
				OnWorkerStart: func(w int) {
					workerSpans[w] = curSolveSpan.Child(fmt.Sprintf("Worker[%d]", w))
					opts.Recorder.Record("sat.worker", "start worker=%d", w)
				},
				OnWorkerDone: func(w int, st sat.Status, delta sat.Stats, won bool, recovered any) {
					opts.Metrics.RecordWorkerConflicts(w, delta.Conflicts)
					sp := workerSpans[w].Attr("status", st.String()).
						Attr("conflicts", delta.Conflicts).Attr("winner", won)
					switch {
					case recovered != nil:
						opts.Metrics.RecordWorkerDeath()
						opts.Recorder.Record("sat.worker", "panic worker=%d: %v", w, recovered)
						sp.Outcome(obs.OutcomeError).Attr("panic", fmt.Sprint(recovered))
					case won:
						opts.Metrics.RecordWorkerWin(w)
						opts.Recorder.Record("sat.worker", "win worker=%d status=%s conflicts=%d", w, st, delta.Conflicts)
					default:
						opts.Recorder.Record("sat.worker", "cancel worker=%d status=%s conflicts=%d", w, st, delta.Conflicts)
					}
					sp.End()
				},
			})
			if err != nil {
				return err
			}
			lastShared = sat.ParallelStats{}
			opts.Metrics.RecordParallelWorkers(opts.Workers)
		}
		return nil
	}
	if err := compile(); err != nil {
		return nil, err
	}
	// cumStats reads the search counters — summed over all portfolio
	// workers when racing, the single solver's otherwise — so IterStats
	// deltas report the true total effort of each call.
	cumStats := func() sat.Stats {
		if par != nil {
			return par.TotalStats()
		}
		return sys.S.Stats
	}

	// SOLVE(φ ∧ lo ≤ cost ≤ hi); lo/hi of -1 mean unconstrained.
	solve := func(lo, hi int64) (solveOut, error) {
		res.SolveCalls++
		// Encode-effort baseline for this call: fresh mode re-encodes the
		// whole formula (the new blaster's counters start at zero, so the
		// rebuild is charged to this call); incremental mode snapshots the
		// live counters so only the new bound probes are charged.
		var preEnc bv.EncodeStats
		if !opts.Incremental && res.SolveCalls > 1 {
			// Fresh solver and fresh bit-blast per call (baseline mode).
			if err := compile(); err != nil {
				return solveOut{}, err
			}
		} else {
			preEnc = sys.B.Stats()
		}
		var assumptions []sat.Lit
		if lo >= 0 {
			l, err := sys.LowerBoundLit(enc.Cost, lo)
			if err != nil {
				return solveOut{}, err
			}
			assumptions = append(assumptions, l)
		}
		if hi >= 0 {
			l, err := sys.UpperBoundLit(enc.Cost, hi)
			if err != nil {
				return solveOut{}, err
			}
			assumptions = append(assumptions, l)
		}
		// Snapshot the cumulative counters so this call's effort is a
		// delta — the solver keeps counting across calls in incremental
		// mode, and summing its cumulative values would sum prefix sums.
		pre := cumStats()
		preConf, preDec := pre.Conflicts, pre.Decisions
		callStart := time.Now()
		sp := opts.Trace.Child(fmt.Sprintf("Solve[%d]", res.SolveCalls)).
			Attr("lo", lo).Attr("hi", hi)
		var st sat.Status
		if par != nil {
			curSolveSpan = sp
			st = par.Solve(assumptions...)
			if err := par.Err(); err != nil {
				sp.Outcome(obs.OutcomeError).Attr("error", err.Error()).End()
				return solveOut{}, err
			}
			snap := par.Snapshot()
			opts.Metrics.RecordShared(snap.Exported-lastShared.Exported,
				snap.Imported-lastShared.Imported, snap.Filtered-lastShared.Filtered)
			lastShared = snap
			sp.Attr("winner", snap.LastWinner)
		} else {
			st = sys.Solve(assumptions...)
		}
		out := solveOut{status: st}
		if st == sat.Sat {
			out.assign = sys.Model()
			out.cost = out.assign.Ints[enc.Cost]
		}
		post := cumStats()
		postEnc := sys.B.Stats()
		it := IterStats{
			Call:        res.SolveCalls,
			Lo:          lo,
			Hi:          hi,
			Status:      st,
			Cost:        -1,
			Conflicts:   post.Conflicts - preConf,
			Decisions:   post.Decisions - preDec,
			GatesBuilt:  postEnc.GatesEmitted - preEnc.GatesEmitted,
			GatesReused: postEnc.GatesReused() - preEnc.GatesReused(),
			Duration:    time.Since(callStart),
		}
		if st == sat.Sat {
			it.Cost = out.cost
		}
		reportEncode()
		res.Iters = append(res.Iters, it)
		res.Conflicts += it.Conflicts
		res.Decisions += it.Decisions
		sp.Attr("status", st.String()).Attr("cost", it.Cost).
			Attr("conflicts", it.Conflicts).Attr("decisions", it.Decisions).End()
		opts.Metrics.RecordIter(it.Duration, st == sat.Unknown)
		opts.Recorder.Record("opt.iter", "call=%d lo=%d hi=%d status=%s cost=%d conflicts=%d",
			it.Call, lo, hi, st, it.Cost, it.Conflicts)
		if st == sat.Unknown {
			opts.Recorder.Record("opt.budget", "call=%d interrupted (budget/deadline/cancel)", it.Call)
		}
		return out, nil
	}

	finish := func() (*Result, error) {
		res.Duration = time.Since(start)
		res.SolverStats = cumStats()
		if (res.Status == Optimal || res.Status == Feasible) && !opts.SkipVerify {
			sp := opts.Trace.Child("Verify")
			err := verify(enc, res)
			sp.End()
			if err != nil {
				return nil, err
			}
		}
		if opts.Proof {
			// Replay every log through the checker; a verdict whose proof
			// does not replay is treated like a failed Verify — loudly.
			sp := opts.Trace.Child("ProofCheck")
			cert, err := proof.Certify(proofLogs...)
			if err != nil {
				sp.Outcome(obs.OutcomeError).Attr("error", err.Error()).End()
				return nil, fmt.Errorf("opt: proof check failed: %w", err)
			}
			sp.Attr("logs", len(cert.Logs)).Attr("steps", cert.Steps).
				Attr("probes", cert.Probes).End()
			res.Certificate = cert
			opts.Metrics.RecordProofCheck(cert.Steps, cert.Probes, cert.CheckDuration)
			opts.Recorder.Record("proof.check",
				"certified logs=%d steps=%d probes=%d root_conflicts=%d in %s",
				len(cert.Logs), cert.Steps, cert.Probes, cert.RootConflicts, cert.CheckDuration)
		}
		return res, nil
	}

	// R := SOLVE(φ), or SOLVE(φ ∧ cost ≤ c) from an incumbent of cost c.
	firstHi := int64(-1)
	if opts.Incumbent != nil {
		firstHi = warmStart(enc, sys, opts)
	}
	L := enc.Cost.Lo
	first, err := solve(-1, firstHi)
	if err != nil {
		return nil, err
	}
	if first.status == sat.Unsat && firstHi >= 0 {
		// No model costs ≤ c: the optimum lies above the incumbent's cost.
		L = firstHi + 1
		opts.logf("no model with cost ≤ %d → L=%d", firstHi, L)
		if opts.Incremental {
			if err := sys.AssertLowerBound(enc.Cost, L); err != nil {
				return nil, err
			}
		}
		if first, err = solve(L, -1); err != nil {
			return nil, err
		}
	}
	switch first.status {
	case sat.Unsat:
		res.Status = Infeasible
		return finish()
	case sat.Unknown:
		// Interrupted before any model existed: nothing to salvage beyond
		// the lower bound proven so far.
		res.Status = Aborted
		res.LowerBound = L
		return finish()
	}
	best := first
	R := best.cost
	opts.logf("initial solution cost=%d (search window [%d,%d])", R, L, R)
	publishWindow := func() {
		opts.Metrics.RecordBounds(L, R)
		opts.Recorder.Record("opt.bounds", "L=%d R=%d gap=%d", L, R, R-L)
		if opts.OnImprove != nil {
			opts.OnImprove(L, R)
		}
	}
	opts.Metrics.RecordIncumbent(R)
	opts.Recorder.Record("opt.incumbent", "cost=%d (initial model)", R)
	publishWindow()

	// degrade packages the incumbent and the proven window [L,R] as a
	// Feasible result — the anytime payoff of an interrupted search.
	degrade := func(L int64) (*Result, error) {
		res.Status = Feasible
		res.Cost = best.cost
		res.LowerBound = L
		res.Assignment = best.assign
		dsp := opts.Trace.Child("Decode")
		alloc, derr := enc.Decode(best.assign)
		dsp.End()
		if derr != nil {
			return nil, derr
		}
		res.Allocation = alloc
		opts.logf("search interrupted: incumbent cost=%d, proven lower bound=%d (gap %d)",
			res.Cost, L, res.Cost-L)
		return finish()
	}

	for L < R {
		if stop() {
			// Cancelled between calls: start no further SOLVE, and count
			// the interruption as an interrupted call would have been.
			opts.Metrics.RecordBudgetHit()
			opts.Recorder.Record("opt.budget", "interrupted before call=%d (budget/deadline/cancel)", res.SolveCalls+1)
			return degrade(L)
		}
		M := (L + R) / 2
		k, err := solve(L, M)
		if err != nil {
			return nil, err
		}
		switch k.status {
		case sat.Unsat:
			opts.logf("window [%d,%d] empty → L=%d", L, M, M+1)
			L = M + 1
			publishWindow()
			if opts.Incremental {
				// The bound is entailed (nothing below L can be feasible),
				// so asserting it permanently is safe and lets the learner
				// prune with it.
				if err := sys.AssertLowerBound(enc.Cost, L); err != nil {
					return nil, err
				}
			}
		case sat.Sat:
			best = k
			R = k.cost
			opts.logf("found cost=%d → R=%d", k.cost, R)
			opts.Metrics.RecordIncumbent(R)
			opts.Recorder.Record("opt.incumbent", "cost=%d", R)
			publishWindow()
		case sat.Unknown:
			return degrade(L)
		}
	}

	res.Status = Optimal
	res.Cost = R
	res.LowerBound = R
	res.Assignment = best.assign
	dsp := opts.Trace.Child("Decode")
	alloc, err := enc.Decode(best.assign)
	dsp.End()
	if err != nil {
		return nil, err
	}
	res.Allocation = alloc
	return finish()
}

// warmStart hints the incumbent's decision values to the solver (in the
// formula's variable order, so the search stays repeatable) and returns
// the cost bound of the first probe: the incumbent's cost, or -1
// (unbounded) when there is no allocation or its cost does not narrow the
// encoding's cost range.
func warmStart(enc *encode.Encoding, sys *bv.System, opts Options) int64 {
	inc := opts.Incumbent
	sp := opts.Trace.Child("WarmStart").Attr("feasible", inc.Allocation != nil)
	defer sp.End()
	if inc.Allocation == nil {
		opts.Recorder.Record("opt.warmstart", "no incumbent: first probe unbounded")
		return -1
	}
	lits := sys.AssignmentLits(enc.DecisionAssignment(inc.Allocation))
	for _, l := range lits {
		sys.S.Hint(l)
	}
	hi := int64(-1)
	if inc.Cost >= enc.Cost.Lo && inc.Cost < enc.Cost.Hi {
		hi = inc.Cost
	}
	sp.Attr("cost", inc.Cost).Attr("hinted", len(lits))
	opts.Recorder.Record("opt.warmstart", "incumbent cost=%d hinted=%d first probe hi=%d",
		inc.Cost, len(lits), hi)
	return hi
}

// verify cross-checks the optimizer's output against the source formula and
// the independent response-time analyzer.
func verify(enc *encode.Encoding, res *Result) error {
	if !enc.F.Satisfied(res.Assignment) {
		return fmt.Errorf("opt: model does not satisfy the source formula (encoder/bit-blaster bug)")
	}
	r := rta.Analyze(enc.Sys, res.Allocation)
	if !r.Schedulable {
		return fmt.Errorf("opt: allocation rejected by response-time analysis: %v", r.Violations)
	}
	return nil
}

// EnumerateOptimalPlacements enumerates distinct task placements Π that
// achieve the given optimal cost, invoking fn with a decoded allocation
// for each (at most limit; 0 = unlimited). It compiles a fresh solver, so
// it can be called after Minimize with the cost it proved. The projection
// is the one-hot placement variables only: allocations differing in
// routes, slots or local deadlines but not placement count once.
func EnumerateOptimalPlacements(enc *encode.Encoding, optimal int64, limit int, fn func(*model.Allocation) bool) (int, error) {
	sys, err := bv.Compile(enc.F)
	if err != nil {
		return 0, err
	}
	// Pin the cost to the optimum (the paper's final "solving φ ∧ i = o").
	if err := sys.AssertLowerBound(enc.Cost, optimal); err != nil {
		return 0, err
	}
	hi, err := sys.UpperBoundLit(enc.Cost, optimal)
	if err != nil {
		return 0, err
	}
	if err := sys.S.AddClause(hi); err != nil {
		return 0, err
	}
	vars := enc.PlacementVars()
	satVars := make([]sat.Var, 0, len(vars))
	for _, v := range vars {
		satVars = append(satVars, sys.BoolSolverVar(v))
	}
	var decodeErr error
	n := sys.S.EnumerateModels(satVars, limit, func(map[sat.Var]bool) bool {
		alloc, err := enc.Decode(sys.Model())
		if err != nil {
			decodeErr = err
			return false
		}
		return fn(alloc)
	})
	return n, decodeErr
}
