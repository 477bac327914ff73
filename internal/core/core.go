// Package core is the public face of the allocator: it ties together the
// constraint encoding (§3–4 of Metzner et al., IPDPS 2006), the
// SAT/pseudo-Boolean engine (§5.1), and the binary-search optimizer (§5.2)
// behind a single call, and returns solutions that have already been
// re-validated by the independent response-time analysis.
//
// Typical use:
//
//	sol, err := core.Solve(sys, core.Config{Objective: core.MinimizeTRT})
//	if err != nil { ... }
//	if !sol.Feasible { ... }
//	fmt.Println(sol.Cost, sol.Allocation.TaskECU)
package core

import (
	"context"
	"fmt"
	"runtime/debug"
	"time"

	"satalloc/internal/baseline"
	"satalloc/internal/bv"
	"satalloc/internal/encode"
	"satalloc/internal/flightrec"
	"satalloc/internal/metrics"
	"satalloc/internal/model"
	"satalloc/internal/obs"
	"satalloc/internal/opt"
	"satalloc/internal/proof"
	"satalloc/internal/rta"
	"satalloc/internal/sat"
)

// Objective re-exports the encoder's objectives.
type Objective = encode.Objective

// The available optimization objectives.
const (
	MinimizeTRT               = encode.MinimizeTRT
	MinimizeSumTRT            = encode.MinimizeSumTRT
	MinimizeBusUtilization    = encode.MinimizeBusUtilization
	MinimizeMaxECUUtilization = encode.MinimizeMaxECUUtilization
	MinimizeUsedECUs          = encode.MinimizeUsedECUs
)

// Config controls a Solve run.
type Config struct {
	// Objective selects the cost function (default MinimizeTRT).
	Objective Objective
	// ObjectiveMedium designates the medium the objective refers to;
	// 0-valued configs use the first medium of the appropriate kind.
	// Set to a medium ID to pin it explicitly; -1 also means "first".
	ObjectiveMedium int
	// FreshSolverPerCall disables the learned-clause reuse of §7 and
	// rebuilds the solver for every SOLVE call of the binary search.
	FreshSolverPerCall bool
	// MaxConflictsPerCall aborts runaway solves; 0 = unlimited.
	MaxConflictsPerCall int64
	// Workers sets the clause-sharing CDCL portfolio size for each SOLVE
	// call of the binary search (see opt.Options.Workers): ≥ 2 races that
	// many diversified workers, ≤ 1 (including the zero value) keeps the
	// sequential solver.
	Workers int
	// Proof enables DRAT-modulo-PB proof logging and checking (see
	// opt.Options.Proof): every UNSAT verdict of the run — including the
	// binary search's final optimality probe — is replayed through the
	// internal checker and the certificate lands in Solution.Certificate.
	// Sequential-only: Proof with Workers ≥ 2 is rejected.
	Proof bool
	// Explain, on an Infeasible verdict, re-encodes the spec with
	// selector-guarded constraint groups and extracts a minimized unsat
	// core naming the responsible tasks, ECUs, and messages (see
	// opt.ExplainInfeasible); the report lands in Solution.Core. Feasible
	// runs pay nothing. The extraction solver is always sequential.
	Explain bool
	// Timeout bounds the whole solve wall-clock; 0 = unlimited. On expiry
	// the search degrades to the best incumbent found (Status Feasible
	// with a proven [LowerBound, Cost] window) or Aborted, never an empty
	// hang. It composes with the caller's context in SolveContext.
	Timeout time.Duration
	// DiagnosticsDir is where panic repro bundles are written; empty uses
	// DefaultDiagnosticsDir.
	DiagnosticsDir string
	// Logf receives progress lines when set.
	Logf func(format string, args ...any)
	// Trace, when set, is the parent span under which the whole pipeline
	// (Encode → Triplet → BitBlast → Solve[i] → Decode → Verify) records
	// its spans. Nil disables tracing.
	Trace *obs.Span
	// Progress, when set, becomes the SAT solver's OnProgress hook (see
	// sat.Solver.OnProgress and obs.NewProgressPrinter).
	Progress func(sat.Progress)
	// OnImprove, when set, receives the binary search's proven window
	// [lower, upper] after the initial model and every subsequent window
	// move (see opt.Options.OnImprove); upper is always the cost of a model
	// already in hand, so this is the anytime incumbent stream the
	// allocation service forwards to job watchers.
	OnImprove func(lower, upper int64)
	// Metrics, when set, receives the live counter/gauge/histogram series
	// of the whole pipeline (search counters, LBD, bounds, incumbents,
	// phase outcomes) — typically the instrument behind an ophttp ops
	// listener. Nil disables metrics at the cost of one nil check per
	// observation point.
	Metrics *metrics.SolverMetrics
	// FlightRecorder, when set, receives the recent-event ring that ends
	// up in panic repro bundles and on /debug/flightrec. When nil,
	// SolveContext still runs a private recorder internally so every
	// bundle carries the event history leading up to a contained panic.
	FlightRecorder *flightrec.Recorder
}

// Solution is the outcome of a Solve run.
type Solution struct {
	// Status is the optimizer's verdict: Optimal, Infeasible, Feasible
	// (interrupted with an incumbent and a proven gap), or Aborted
	// (interrupted before any model was found).
	Status opt.Status
	// Feasible is false when no allocation is available (either none
	// exists, or the search was interrupted before finding one).
	Feasible bool
	// Aborted is true when the search was interrupted — conflict budget,
	// deadline, or cancellation; Cost then holds the best (possibly
	// suboptimal) value found, if any. See Status for the finer verdict.
	Aborted bool
	// Cost is the objective value of Allocation: the proven minimum when
	// Status is Optimal, the best incumbent's (verified) value when
	// Status is Feasible.
	Cost int64
	// LowerBound is the proven lower bound on the optimal cost; equal to
	// Cost when Status is Optimal, ≤ Cost when Feasible (the difference
	// is the suboptimality gap).
	LowerBound int64
	// Allocation is the optimal deployment: Π, Φ, Γ, slot table, local
	// message deadlines.
	Allocation *model.Allocation
	// Analysis is the independent response-time analysis of Allocation.
	Analysis *rta.Result

	// Encoding/search statistics (the paper's Table columns).
	BoolVars   int
	Literals   int64
	SolveCalls int
	Conflicts  int64
	Duration   time.Duration
	// Iters is the per-SOLVE-call search history of the binary search.
	Iters []opt.IterStats
	// SolverStats is the SAT solver's final cumulative counter snapshot.
	SolverStats sat.Stats
	// Certificate is the checked proof artifact of the run when
	// Config.Proof was set: every solver log, already replayed by the
	// internal checker. Nil otherwise.
	Certificate *proof.Certificate
	// Core, set on an Infeasible verdict under Config.Explain, names the
	// constraint families that are jointly unsatisfiable. Nil otherwise.
	Core *opt.CoreReport
}

// Solve finds a provably cost-minimal schedulable allocation of the
// system's tasks and messages, or reports infeasibility. It is
// SolveContext under a background context — cfg.Timeout still applies.
func Solve(sys *model.System, cfg Config) (*Solution, error) {
	//satlint:ignore ctxflow no-ctx convenience wrapper: Solve's contract is "SolveContext under a background context"
	return SolveContext(context.Background(), sys, cfg)
}

// SolveContext is Solve under a caller-supplied context. Cancellation (or
// cfg.Timeout, whichever fires first) stops the search within one solver
// restart boundary and degrades the result along the ladder
// optimal → feasible-with-gap → aborted, preserving the best incumbent
// and the proven cost window instead of discarding the work done.
//
// A panic anywhere in the encode/solve/decode pipeline is contained here:
// it is recovered, a repro bundle (problem spec, formula dump, solver
// stats, stack) is written under cfg.DiagnosticsDir, and a *PanicError
// is returned in its place.
func SolveContext(ctx context.Context, sys *model.System, cfg Config) (sol *Solution, err error) {
	if err := sys.Validate(); err != nil {
		return nil, fmt.Errorf("core: invalid system: %w", err)
	}
	if cfg.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, cfg.Timeout)
		defer cancel()
	}
	rec := cfg.FlightRecorder
	if rec == nil {
		// Always keep a private ring so a contained panic's repro bundle
		// carries the event history even when no recorder was wired up.
		rec = flightrec.New(flightrec.DefaultCapacity)
	}
	cfg.Metrics.RecordSolveStart()
	rec.Record("core.solve.start", "system=%s tasks=%d messages=%d",
		sys.Name, len(sys.Tasks), len(sys.Messages))
	// Registered before the recover defer (LIFO) so it sees the final
	// sol/err — including the PanicError the recover substitutes.
	defer func() {
		switch {
		case sol != nil:
			cfg.Metrics.RecordSolveEnd(sol.Status.String())
			rec.Record("core.solve.end", "status=%s cost=%d conflicts=%d",
				sol.Status, sol.Cost, sol.Conflicts)
		case err != nil:
			cfg.Metrics.RecordSolveEnd("error")
			rec.Record("core.solve.end", "status=error err=%v", err)
		}
	}()
	var observed *bv.System
	var observedLog *proof.Log
	defer func() {
		if r := recover(); r != nil {
			sol = nil
			cfg.Metrics.RecordPanic()
			rec.Record("core.panic", "%v", r)
			err = newPanicError(r, debug.Stack(), cfg.DiagnosticsDir, sys, observed, observedLog, rec)
		}
	}()
	objMedium := cfg.ObjectiveMedium
	if objMedium == 0 {
		objMedium = -1
	}
	encOpts := encode.Options{
		Objective:       cfg.Objective,
		ObjectiveMedium: objMedium,
		Trace:           cfg.Trace,
	}
	enc, err := encode.Encode(sys, encOpts)
	if err != nil {
		return nil, fmt.Errorf("core: encoding failed: %w", err)
	}
	// Warm start: the greedy first-fit allocation, when it finds one,
	// bounds the first SOLVE call and steers its decisions.
	greedy := baseline.GreedyFirstFit(sys, encOpts)
	inc := &opt.Incumbent{}
	if greedy.Feasible {
		inc.Allocation, inc.Cost = greedy.Allocation, greedy.Cost
	}
	res, err := opt.Minimize(enc, opt.Options{
		Incumbent:           inc,
		Incremental:         !cfg.FreshSolverPerCall,
		MaxConflictsPerCall: cfg.MaxConflictsPerCall,
		Workers:             cfg.Workers,
		Proof:               cfg.Proof,
		Logf:                cfg.Logf,
		Trace:               cfg.Trace,
		Progress:            cfg.Progress,
		OnImprove:           cfg.OnImprove,
		Metrics:             cfg.Metrics,
		Recorder:            rec,
		Ctx:                 ctx,
		Observe:             func(b *bv.System) { observed = b },
		ObserveProof:        func(l *proof.Log) { observedLog = l },
	})
	if err != nil {
		return nil, fmt.Errorf("core: optimization failed: %w", err)
	}
	sol = &Solution{
		Status:      res.Status,
		LowerBound:  res.LowerBound,
		BoolVars:    res.Vars,
		Literals:    res.Literals,
		SolveCalls:  res.SolveCalls,
		Conflicts:   res.Conflicts,
		Duration:    res.Duration,
		Iters:       res.Iters,
		SolverStats: res.SolverStats,
		Certificate: res.Certificate,
	}
	switch res.Status {
	case opt.Infeasible:
		if cfg.Explain {
			report, xerr := opt.ExplainInfeasible(sys, encOpts, opt.Options{
				MaxConflictsPerCall: cfg.MaxConflictsPerCall,
				Proof:               cfg.Proof,
				Logf:                cfg.Logf,
				Trace:               cfg.Trace,
				Progress:            cfg.Progress,
				Metrics:             cfg.Metrics,
				Recorder:            rec,
				Ctx:                 ctx,
				ObserveProof:        func(l *proof.Log) { observedLog = l },
			})
			if xerr != nil {
				return nil, fmt.Errorf("core: infeasibility explanation failed: %w", xerr)
			}
			// Thread the report through both result shapes so the ops
			// routes and panic bundles see it wherever they hang off.
			res.Core = report
			sol.Core = report
		}
		return sol, nil
	case opt.Aborted, opt.Feasible:
		sol.Aborted = true
	}
	sol.Feasible = res.Allocation != nil
	if sol.Feasible {
		sol.Cost = res.Cost
		sol.Allocation = res.Allocation
		sol.Analysis = rta.Analyze(sys, res.Allocation)
	}
	return sol, nil
}

// certificateLine renders the one-line proof-artifact summary Explain and
// the CLI print for certified runs.
func certificateLine(c *proof.Certificate) string {
	return fmt.Sprintf("proof: %d log(s) checked, %d steps, %d UNSAT probes certified in %v\n",
		len(c.Logs), c.Steps, c.Probes, c.CheckDuration.Round(time.Millisecond))
}

// CheckFeasible answers only the decision question "is any allocation
// schedulable?", using one SOLVE call (no binary search beyond the first
// model): the first model cancels the search, whose anytime result then
// carries that model.
func CheckFeasible(sys *model.System, cfg Config) (bool, error) {
	cfg.MaxConflictsPerCall = 0
	//satlint:ignore ctxflow no-ctx convenience wrapper: the context exists only to stop the search at its first model
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	onImprove := cfg.OnImprove
	cfg.OnImprove = func(lower, upper int64) {
		cancel()
		if onImprove != nil {
			onImprove(lower, upper)
		}
	}
	sol, err := SolveContext(ctx, sys, cfg)
	if err != nil {
		return false, err
	}
	return sol.Feasible, nil
}

// Explain renders a human-readable summary of a solution.
func Explain(sys *model.System, sol *Solution) string {
	if sol == nil || !sol.Feasible {
		if sol != nil && sol.Status == opt.Aborted {
			return "budget exhausted or cancelled before any feasible allocation was found\n"
		}
		out := "no feasible allocation exists\n"
		if sol != nil && sol.Core != nil {
			out += sol.Core.String() + "\n"
			if !sol.Core.Minimal {
				out += "(core not minimized to completion; some families may be redundant)\n"
			}
		}
		if sol != nil && sol.Certificate != nil {
			out += certificateLine(sol.Certificate)
		}
		return out
	}
	var out string
	if sol.Status == opt.Feasible {
		out = fmt.Sprintf("feasible cost: %d (search interrupted; proven lower bound %d, gap %d, %d SOLVE calls)\n",
			sol.Cost, sol.LowerBound, sol.Cost-sol.LowerBound, sol.SolveCalls)
	} else {
		out = fmt.Sprintf("optimal cost: %d (proven by binary search over %d SOLVE calls)\n",
			sol.Cost, sol.SolveCalls)
	}
	out += fmt.Sprintf("encoding: %d Boolean variables, %d literals; %d conflicts; %v\n",
		sol.BoolVars, sol.Literals, sol.Conflicts, sol.Duration.Round(time.Millisecond))
	if sol.Certificate != nil {
		out += certificateLine(sol.Certificate)
	}
	for _, t := range sys.Tasks {
		p := sol.Allocation.TaskECU[t.ID]
		out += fmt.Sprintf("  task %-8s → ECU %-2d (prio %2d, response %d/%d)\n",
			t.Name, p, sol.Allocation.TaskPrio[t.ID], sol.Analysis.TaskResponse[t.ID], t.Deadline)
	}
	for _, m := range sys.Messages {
		route := sol.Allocation.Route[m.ID]
		if len(route) == 0 {
			out += fmt.Sprintf("  msg  %-8s → local delivery (co-located)\n", m.Name)
			continue
		}
		out += fmt.Sprintf("  msg  %-8s → path %v (end-to-end bound %d/%d)\n",
			m.Name, route, sol.Analysis.MsgEndToEnd[m.ID], m.Deadline)
	}
	return out
}
