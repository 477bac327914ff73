// Command benchtab regenerates the tables of the paper's evaluation
// section and prints them in the paper's layout.
//
// Usage:
//
//	benchtab [-mode scaled|full] [-table 1|2|3|4|reuse|iters|all]
//	         [-workers n] [-trace spans.jsonl] [-ops-addr :9090]
//	         [-timeout 10m] [-conflict-budget n]
//	         [-cpuprofile f] [-memprofile f] [-exectrace f]
//
// Scaled mode (default) shrinks the instances so the whole suite finishes
// in minutes; full mode uses paper-shaped sizes (expect long runtimes on
// the largest instances, as the authors did). The "iters" table prints
// the per-SOLVE-call search history of one representative run — the
// per-call measurement behind the §7 incremental-speedup claim. The
// profile flags write runtime/pprof output for the whole suite; -trace
// writes a JSONL span trace covering every instance; -ops-addr serves
// the live metrics registry, /progress, the flight recorder, and
// net/http/pprof while the suite runs.
//
// -timeout bounds the whole suite's wall clock (and Ctrl-C cancels it):
// the in-flight solve degrades to its best incumbent, tables stop between
// instances, and the rows completed so far are still printed.
package main

import (
	"flag"
	"fmt"
	"os"

	"satalloc/internal/cli"
	"satalloc/internal/experiments"
	"satalloc/internal/obs"
)

// main delegates to run so deferred cleanups (profile flush) still execute
// on non-zero exits.
func main() {
	os.Exit(run())
}

func run() int {
	modeFlag := flag.String("mode", "scaled", "instance sizes: scaled or full")
	tableFlag := flag.String("table", "all", "which table to run: 1, 2, 3, 4, reuse, iters, or all")
	trace := cli.AddTraceFlag(flag.CommandLine)
	ops := cli.AddOpsFlags(flag.CommandLine)
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file")
	exectrace := flag.String("exectrace", "", "write a runtime execution trace (go tool trace) to this file")
	workers := cli.AddWorkersFlag(flag.CommandLine)
	budgetFlags := cli.AddBudgetFlags(flag.CommandLine)
	flag.Parse()

	ctx, cancel := budgetFlags.Context()
	defer cancel()
	root, err := trace.Start("benchtab")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchtab: %v\n", err)
		return 1
	}
	defer trace.Close("benchtab")
	if err := ops.Start("benchtab"); err != nil {
		fmt.Fprintf(os.Stderr, "benchtab: %v\n", err)
		return 1
	}
	defer ops.Close("benchtab")
	budget := experiments.Budget{
		Ctx:                 ctx,
		MaxConflictsPerCall: budgetFlags.ConflictBudget,
		Workers:             *workers,
		Trace:               root,
		Metrics:             ops.Metrics,
		Recorder:            ops.Recorder,
	}

	mode := experiments.Scaled
	switch *modeFlag {
	case "scaled":
	case "full":
		mode = experiments.Full
	default:
		fmt.Fprintf(os.Stderr, "benchtab: unknown mode %q\n", *modeFlag)
		return 2
	}

	stopProf, err := obs.StartProfiling(*cpuprofile, *memprofile, *exectrace)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchtab: %v\n", err)
		return 1
	}
	defer stopProf()

	code := 0
	fail := func(err error) {
		fmt.Fprintf(os.Stderr, "benchtab: %v\n", err)
		code = 1
	}
	want := func(name string) bool { return code == 0 && (*tableFlag == "all" || *tableFlag == name) }

	fmt.Printf("== satalloc experiment suite (%s mode) ==\n\n", mode)
	if want("1") {
		rows, err := experiments.Table1(mode, budget)
		if err != nil {
			fail(err)
		} else {
			fmt.Println(experiments.FormatTable1(rows))
		}
	}
	if want("2") {
		rows, err := experiments.Table2(mode, budget)
		if err != nil {
			fail(err)
		} else {
			fmt.Println(experiments.FormatScaleTable(
				"Table 2. Complexity vs. architecture size (token ring, min TRT)", "ECUs", rows))
		}
	}
	if want("3") {
		rows, err := experiments.Table3(mode, budget)
		if err != nil {
			fail(err)
		} else {
			fmt.Println(experiments.FormatScaleTable(
				"Table 3. Complexity vs. task-set size (8-ECU ring, min TRT)", "Tasks", rows))
		}
	}
	if want("4") {
		rows, err := experiments.Table4(mode, budget)
		if err != nil {
			fail(err)
		} else {
			fmt.Println(experiments.FormatTable4(rows))
		}
	}
	if want("reuse") {
		row, err := experiments.LearnedClauseReuse(mode, budget)
		if err != nil {
			fail(err)
		} else {
			fmt.Println(experiments.FormatReuse(row))
		}
	}
	if want("iters") {
		row, err := experiments.SearchHistory(mode, budget)
		if err != nil {
			fail(err)
		} else {
			fmt.Println(experiments.FormatHistory(row))
		}
	}
	if ctx.Err() != nil {
		fmt.Fprintln(os.Stderr, "benchtab: budget exhausted or cancelled; tables above may be partial")
	}
	return code
}
