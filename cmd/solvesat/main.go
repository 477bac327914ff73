// Command solvesat exposes the allocator's CDCL/pseudo-Boolean engine as a
// standalone solver for DIMACS CNF and OPB pseudo-Boolean files — the
// GOBLIN-equivalent substrate of the reproduction, usable on its own.
//
// Usage:
//
//	solvesat [-format cnf|opb] [-workers n] [-proof out.drat]
//	         [-progress 1s] [-trace spans.jsonl] [-ops-addr :9090]
//	         [-timeout 30s] [-conflict-budget n] [-cpuprofile f]
//	         [-memprofile f] [-exectrace f] [file]
//
// Without -format the format is inferred from the file extension (.cnf /
// .opb), defaulting to cnf on stdin. For OPB files with a "min:" objective
// line the solver minimizes it by iterative strengthening (the
// Davis-Putnam-based enumeration of Barth [15]: after each model, demand a
// strictly better one until UNSAT). Output follows SAT-competition
// conventions (s/v/o lines). -progress prints "c progress ..." comment
// lines to stderr at the given interval; -trace writes a JSONL span trace
// (one span per SOLVE call); -ops-addr serves the live metrics registry,
// /progress, the flight recorder, and net/http/pprof while the solve
// runs; the profile flags write runtime/pprof output.
//
// -proof writes the solver's derivation as a standard DRAT proof (DIMACS
// literal numbering, "d" deletion lines): on UNSATISFIABLE the file ends
// with the empty clause and any DRAT checker — including this repo's
// internal one — can validate the verdict against the input CNF. DRAT is
// CNF-only and per-solver, so -proof rejects OPB input and an explicit
// -workers ≥ 2 (the CPU-derived default portfolio is downgraded to the
// sequential solver with a note). Exit codes are unchanged by -proof.
//
// Exit codes follow the DIMACS convention: 10 SATISFIABLE, 20
// UNSATISFIABLE, 30 OPTIMUM FOUND, 0 unknown (including budget
// exhaustion). -timeout and -conflict-budget (and Ctrl-C) halt the
// search early; a model found before the halt is still printed with
// "s SATISFIABLE" and exit 10.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"satalloc/internal/cli"
	"satalloc/internal/obs"
	"satalloc/internal/proof"
	"satalloc/internal/sat"
)

// main delegates to run so deferred cleanups (profile flush, trace close,
// ops listener shutdown) still execute on non-zero exits: run reports
// errors through fail and returns the exit code instead of exiting.
func main() {
	os.Exit(run())
}

func run() int {
	format := flag.String("format", "", "input format: cnf or opb (default: by extension)")
	workers := cli.AddWorkersFlag(flag.CommandLine)
	progress := flag.Duration("progress", 0, "emit a solver progress line to stderr at this interval (0: off)")
	trace := cli.AddTraceFlag(flag.CommandLine)
	ops := cli.AddOpsFlags(flag.CommandLine)
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file")
	exectrace := flag.String("exectrace", "", "write a runtime execution trace (go tool trace) to this file")
	budget := cli.AddBudgetFlags(flag.CommandLine)
	proofOut := flag.String("proof", "", "write a DRAT proof of the derivation to this file (CNF input, sequential solver only)")
	flag.Parse()

	if *proofOut != "" {
		if err := cli.ReconcileSequential(flag.CommandLine, workers, "-proof"); err != nil {
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

	root, err := trace.Start("solvesat")
	if err != nil {
		return fail(err)
	}
	defer trace.Close("solvesat")
	if err := ops.Start("solvesat"); err != nil {
		return fail(err)
	}
	defer ops.Close("solvesat")

	var hook func(sat.Progress)
	if *progress > 0 {
		hook = obs.NewProgressPrinter(os.Stderr, *progress)
	}
	hook = obs.TeeProgress(hook,
		obs.MetricsProgress(ops.Metrics), obs.FlightProgress(ops.Recorder))

	// mkSolve upgrades the parsed solver to a clause-sharing portfolio when
	// -workers asks for one; with workers ≤ 1 it is the sequential solver
	// unchanged. The returned function runs one SOLVE call wrapped in a
	// trace span and the per-call metrics, so the ops endpoint sees the
	// iterative-strengthening rounds (and the shared-clause deltas).
	call := 0
	mkSolve := func(s *sat.Solver) (func() (sat.Status, error), error) {
		var par *sat.ParallelSolver
		var lastShared sat.ParallelStats
		if *workers >= 2 {
			var err error
			par, err = sat.NewParallel(s, sat.ParallelOptions{Workers: *workers})
			if err != nil {
				return nil, err
			}
			ops.Metrics.RecordParallelWorkers(*workers)
		}
		return func() (sat.Status, error) {
			call++
			sp := root.Child(fmt.Sprintf("Solve[%d]", call))
			start := time.Now()
			var st sat.Status
			if par != nil {
				st = par.Solve()
				if err := par.Err(); err != nil {
					sp.Attr("error", err.Error()).End()
					return st, err
				}
				snap := par.Snapshot()
				ops.Metrics.RecordShared(snap.Exported-lastShared.Exported,
					snap.Imported-lastShared.Imported, snap.Filtered-lastShared.Filtered)
				lastShared = snap
				sp.Attr("winner", snap.LastWinner)
			} else {
				st = s.Solve()
			}
			ops.Metrics.RecordIter(time.Since(start), st == sat.Unknown)
			sp.Attr("status", st.String()).End()
			return st, nil
		}, nil
	}

	var in io.Reader = os.Stdin
	name := ""
	if flag.NArg() > 0 {
		name = flag.Arg(0)
		f, err := os.Open(name)
		if err != nil {
			return fail(err)
		}
		defer f.Close()
		in = f
	}
	fm := *format
	if fm == "" {
		switch {
		case strings.HasSuffix(name, ".opb"):
			fm = "opb"
		default:
			fm = "cnf"
		}
	}

	switch fm {
	case "cnf":
		// The logger must be installed before parsing so the proof covers
		// every input clause; DIMACS variable n maps to solver Var(n), so
		// the DRAT file's literal numbering matches the input CNF.
		s := sat.New()
		var plog *proof.Log
		if *proofOut != "" {
			plog = proof.NewLog()
			if err := s.SetProofLogger(plog); err != nil {
				return fail(err)
			}
		}
		n, err := sat.ParseDIMACSInto(s, in)
		if err != nil {
			return fail(err)
		}
		s.OnProgress = hook
		s.OnConflict = ops.Metrics.ConflictHook()
		s.Stop = func() bool { return ctx.Err() != nil }
		s.MaxConflicts = budget.ConflictBudget
		solve, err := mkSolve(s)
		if err != nil {
			return fail(err)
		}
		st, err := solve()
		if err != nil {
			return fail(err)
		}
		if plog != nil {
			// Written for every outcome, like other proof-logging solvers:
			// on UNSATISFIABLE the file ends with the empty clause and
			// checks as a refutation; otherwise it is the derivation so far.
			if err := writeDRAT(*proofOut, plog); err != nil {
				return fail(err)
			}
		}
		switch st {
		case sat.Sat:
			fmt.Println("s SATISFIABLE")
			printModel(s, n)
			return 10
		case sat.Unsat:
			fmt.Println("s UNSATISFIABLE")
			return 20
		default:
			fmt.Println("s UNKNOWN")
			return 0
		}
	case "opb":
		if *proofOut != "" {
			return fail(fmt.Errorf("-proof requires CNF input: pseudo-Boolean constraints are not expressible in DRAT"))
		}
		s, obj, err := sat.ParseOPB(in)
		if err != nil {
			return fail(err)
		}
		s.OnProgress = hook
		s.OnConflict = ops.Metrics.ConflictHook()
		s.Stop = func() bool { return ctx.Err() != nil }
		s.MaxConflicts = budget.ConflictBudget
		n := s.NumVariables()
		solve, err := mkSolve(s)
		if err != nil {
			return fail(err)
		}
		if len(obj) == 0 {
			st, err := solve()
			if err != nil {
				return fail(err)
			}
			switch st {
			case sat.Sat:
				fmt.Println("s SATISFIABLE")
				printModel(s, n)
				return 10
			case sat.Unsat:
				fmt.Println("s UNSATISFIABLE")
				return 20
			default:
				fmt.Println("s UNKNOWN")
				return 0
			}
		}
		// Minimize: iterative strengthening. Each round adds the permanent
		// (and entailed-by-optimality-search) constraint obj ≤ best−1.
		best, haveModel, halted := int64(0), false, false
		var model []bool
		for {
			st, err := solve()
			if err != nil {
				return fail(err)
			}
			if st != sat.Sat {
				halted = st == sat.Unknown
				break
			}
			var v int64
			for _, t := range obj {
				if s.ModelLit(t.Lit) {
					v += t.Coef
				}
			}
			haveModel = true
			best = v
			model = snapshot(s, n)
			ops.Metrics.RecordIncumbent(v)
			ops.Recorder.Record("opt.incumbent", "objective=%d", v)
			fmt.Printf("o %d\n", v)
			// Demand strictly better: Σ obj ≤ best−1 ⇔ Σ −obj ≥ −(best−1).
			neg := make([]sat.PBTerm, len(obj))
			for i, t := range obj {
				neg[i] = sat.PBTerm{Coef: -t.Coef, Lit: t.Lit}
			}
			if err := s.AddPB(neg, -(best - 1)); err != nil {
				return fail(err)
			}
		}
		if !haveModel {
			if halted {
				fmt.Println("s UNKNOWN")
				return 0
			}
			fmt.Println("s UNSATISFIABLE")
			return 20
		}
		if halted {
			// Budget hit with a model in hand: the model is valid, just not
			// proven optimal.
			fmt.Println("s SATISFIABLE")
			fmt.Printf("c objective = %d (search halted before the optimality proof)\n", best)
			printSnapshot(model)
			return 10
		}
		fmt.Println("s OPTIMUM FOUND")
		fmt.Printf("c objective = %d\n", best)
		printSnapshot(model)
		return 30
	default:
		return fail(fmt.Errorf("unknown format %q", fm))
	}
}

// writeDRAT dumps the learn/delete steps of the log as a DRAT file. Input
// steps are omitted per the format: the proof accompanies the CNF.
func writeDRAT(path string, l *proof.Log) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := l.WriteDRAT(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func printModel(s *sat.Solver, n int) {
	fmt.Print("v")
	for i := 1; i <= n; i++ {
		if s.Model(sat.Var(i)) {
			fmt.Printf(" %d", i)
		} else {
			fmt.Printf(" -%d", i)
		}
	}
	fmt.Println(" 0")
}

func snapshot(s *sat.Solver, n int) []bool {
	out := make([]bool, n)
	for i := 1; i <= n; i++ {
		out[i-1] = s.Model(sat.Var(i))
	}
	return out
}

func printSnapshot(model []bool) {
	fmt.Print("v")
	for i, b := range model {
		if b {
			fmt.Printf(" x%d", i+1)
		} else {
			fmt.Printf(" -x%d", i+1)
		}
	}
	fmt.Println()
}

// fail reports err on stderr and returns exit code 1.
func fail(err error) int {
	fmt.Fprintf(os.Stderr, "solvesat: %v\n", err)
	return 1
}
