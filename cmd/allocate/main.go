// Command allocate reads a problem instance (JSON spec) and computes a
// provably optimal task/message allocation.
//
// Usage:
//
//	allocate [-objective trt|sumtrt|busutil|maxutil] [-medium id]
//	         [-fresh] [-workers n] [-proof] [-explain] [-v]
//	         [-progress 1s] [-iters] [-trace spans.jsonl]
//	         [-ops-addr :9090] [-timeout 30s] [-conflict-budget n]
//	         [-cpuprofile f] [-memprofile f] [-exectrace f] [spec.json]
//
// With no file argument the spec is read from stdin. The result — the
// placement Π, priority order Φ, routes Γ, TDMA slot table, and the
// response-time analysis of the optimum — is printed in human-readable
// form; -json emits the raw allocation as JSON instead.
//
// Observability: -progress prints a solver ticker line to stderr at the
// given interval; -trace writes a JSONL span trace of the whole pipeline
// (and prints the phase-breakdown table to stderr); -ops-addr serves the
// live metrics registry (/metrics, /debug/vars), the search progress
// snapshot (/progress), the flight recorder (/debug/flightrec), and
// net/http/pprof while the solve runs; -iters prints the per-SOLVE-call
// search history; -cpuprofile/-memprofile/-exectrace write runtime/pprof
// profiles and a go-tool-trace execution trace.
//
// Verdict observability: -proof logs the solver's inference trace and
// replays it through the internal DRAT-modulo-PB checker, so every UNSAT
// verdict — including the final optimality probe of the binary search —
// is machine-checked before the result prints; -explain follows an
// INFEASIBLE verdict with assumption-based unsat-core extraction over
// selector-guarded constraint groups and prints the minimized core in
// spec vocabulary ("infeasible: deadline(task7) + memory(ecu2)"), also
// published on the ops listener's /explain route. Both modes require the
// sequential solver: combining them with an explicit -workers ≥ 2 is an
// error, and the CPU-derived default portfolio is downgraded with a note.
//
// Budgets: -timeout bounds the wall clock and -conflict-budget each SOLVE
// call; Ctrl-C cancels cleanly. On any of the three the search degrades
// to its best incumbent with a proven optimality gap (printed, exit 0) or
// reports budget exhaustion before any model (exit 4). INFEASIBLE stays
// exit 3.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"satalloc/internal/cli"
	"satalloc/internal/core"
	"satalloc/internal/obs"
	"satalloc/internal/opt"
	"satalloc/internal/report"
)

// main delegates to run so deferred cleanups (profile flush, trace close,
// ops listener shutdown) still execute on non-zero exits: run reports
// errors through fail and returns the exit code instead of exiting.
func main() {
	os.Exit(run())
}

func run() int {
	objective := flag.String("objective", "trt", "cost function: trt, sumtrt, busutil, maxutil, usedecus")
	medium := flag.Int("medium", -1, "medium ID the objective refers to (-1: first suitable)")
	fresh := flag.Bool("fresh", false, "rebuild the solver for every SOLVE call (disable §7 clause reuse)")
	verbose := flag.Bool("v", false, "log binary-search progress")
	asJSON := flag.Bool("json", false, "emit the allocation as JSON")
	asReport := flag.Bool("report", false, "emit a full deployment report with ASCII schedules")
	progress := flag.Duration("progress", 0, "emit a solver progress line to stderr at this interval (0: off)")
	iters := flag.Bool("iters", false, "print the per-SOLVE-call search history")
	trace := cli.AddTraceFlag(flag.CommandLine)
	ops := cli.AddOpsFlags(flag.CommandLine)
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file")
	exectrace := flag.String("exectrace", "", "write a runtime execution trace (go tool trace) to this file")
	workers := cli.AddWorkersFlag(flag.CommandLine)
	budget := cli.AddBudgetFlags(flag.CommandLine)
	proof := flag.Bool("proof", false, "log and machine-check a proof of every UNSAT verdict (sequential solver only)")
	explain := flag.Bool("explain", false, "on INFEASIBLE, extract and print a minimized unsat core naming the responsible constraint families")
	flag.Parse()

	if *proof {
		if err := cli.ReconcileSequential(flag.CommandLine, workers, "-proof"); err != nil {
			return fail(err)
		}
	}
	if *explain {
		if err := cli.ReconcileSequential(flag.CommandLine, workers, "-explain"); err != nil {
			return fail(err)
		}
	}

	ctx, cancel := budget.Context()
	defer cancel()

	stopProf, err := obs.StartProfiling(*cpuprofile, *memprofile, *exectrace)
	if err != nil {
		return fail(err)
	}
	defer stopProf()

	cfg := core.Config{
		ObjectiveMedium:     *medium,
		FreshSolverPerCall:  *fresh,
		MaxConflictsPerCall: budget.ConflictBudget,
		Workers:             *workers,
		Proof:               *proof,
		Explain:             *explain,
	}
	switch *objective {
	case "trt":
		cfg.Objective = core.MinimizeTRT
	case "sumtrt":
		cfg.Objective = core.MinimizeSumTRT
	case "busutil":
		cfg.Objective = core.MinimizeBusUtilization
	case "maxutil":
		cfg.Objective = core.MinimizeMaxECUUtilization
	case "usedecus":
		cfg.Objective = core.MinimizeUsedECUs
	default:
		return fail(fmt.Errorf("unknown objective %q", *objective))
	}
	if *verbose {
		cfg.Logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "# "+format+"\n", args...)
		}
	}
	if *progress > 0 {
		cfg.Progress = obs.NewProgressPrinter(os.Stderr, *progress)
	}

	root, err := trace.Start("allocate")
	if err != nil {
		return fail(err)
	}
	defer trace.Close("allocate")
	cfg.Trace = root

	// The ops listener comes up before the spec is read, so /healthz and
	// /metrics answer while the process is still waiting on stdin.
	if err := ops.Start("allocate"); err != nil {
		return fail(err)
	}
	defer ops.Close("allocate")
	cfg.Metrics = ops.Metrics
	cfg.FlightRecorder = ops.Recorder

	var in io.Reader = os.Stdin
	if flag.NArg() > 0 {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			return fail(err)
		}
		defer f.Close()
		in = f
	}
	sys, err := core.ReadSpec(in)
	if err != nil {
		return fail(err)
	}

	sol, err := core.SolveContext(ctx, sys, cfg)
	if err != nil {
		return fail(err)
	}
	if *iters {
		fmt.Fprint(os.Stderr, report.IterTable(sol.Iters))
	}
	if !sol.Feasible {
		if sol.Status == opt.Aborted {
			fmt.Println("UNKNOWN: budget exhausted or cancelled before any feasible allocation was found")
			return 4
		}
		fmt.Println("INFEASIBLE: no allocation meets all deadlines")
		if sol.Core != nil {
			fmt.Println(sol.Core)
			if !sol.Core.Minimal {
				fmt.Println("(core minimization interrupted; some families may be redundant)")
			}
			ops.PublishExplain(explainPayload(sol))
		}
		if sol.Certificate != nil {
			fmt.Printf("proof: %d step(s), %d UNSAT probe(s) certified\n",
				sol.Certificate.Steps, sol.Certificate.Probes)
		}
		return 3
	}
	if sol.Status == opt.Feasible {
		fmt.Printf("FEASIBLE (search interrupted): cost=%d, proven lower bound=%d, gap=%d\n",
			sol.Cost, sol.LowerBound, sol.Cost-sol.LowerBound)
	}
	if *asJSON {
		if err := core.WriteAllocation(os.Stdout, sys, sol.Allocation, sol.Cost); err != nil {
			return fail(err)
		}
		return 0
	}
	if *asReport {
		horizon := int64(0)
		for _, t := range sys.Tasks {
			if t.Period > horizon {
				horizon = t.Period
			}
		}
		fmt.Printf("optimal cost: %d\n\n", sol.Cost)
		fmt.Print(report.Full(sys, sol.Allocation, 2*horizon, 72))
		return 0
	}
	fmt.Print(core.Explain(sys, sol))
	return 0
}

// explainPayload shapes the core report for the ops listener's /explain
// route: plain strings and counters, no encoder internals.
func explainPayload(sol *core.Solution) any {
	c := sol.Core
	p := struct {
		Status     string   `json:"status"`
		Core       []string `json:"core"`
		Minimal    bool     `json:"minimal"`
		SolveCalls int      `json:"solve_calls"`
		DurationMS int64    `json:"duration_ms"`
		ProofSteps int      `json:"proof_steps,omitempty"`
	}{
		Status:     sol.Status.String(),
		Core:       c.Names(),
		Minimal:    c.Minimal,
		SolveCalls: c.SolveCalls,
		DurationMS: c.Duration.Milliseconds(),
	}
	if c.Certificate != nil {
		p.ProofSteps = c.Certificate.Steps
	}
	return p
}

// fail reports err on stderr and returns exit code 1.
func fail(err error) int {
	fmt.Fprintf(os.Stderr, "allocate: %v\n", err)
	return 1
}
