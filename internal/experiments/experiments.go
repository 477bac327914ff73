// Package experiments regenerates the tables of the paper's evaluation
// (§6): Table 1 (SAT vs. simulated annealing on the [5]-shaped workload,
// token ring and CAN), Table 2 (complexity vs. architecture size), Table 3
// (complexity vs. task-set size), Table 4 (hierarchical architectures A–C
// of Figure 2), and the §7 learned-clause-reuse speedup.
//
// Every experiment runs in one of two modes: Scaled (instances reduced so
// the whole suite finishes in minutes on a laptop — the default for the
// benchmark harness) and Full (paper-shaped sizes; expect the same
// hours-long runtimes the authors report for the largest instances).
// Reported numbers are ticks of the abstract time unit; the paper's
// absolute milliseconds and 2006-era runtimes are not comparable, but the
// qualitative shape — who wins, monotone growth, arch C recovering the
// flat optimum — is.
package experiments

import (
	"context"
	"fmt"
	"strings"
	"time"

	"satalloc/internal/baseline"
	"satalloc/internal/core"
	"satalloc/internal/encode"
	"satalloc/internal/flightrec"
	"satalloc/internal/metrics"
	"satalloc/internal/model"
	"satalloc/internal/obs"
	"satalloc/internal/report"
	"satalloc/internal/workload"
)

// Budget bounds an experiment run. The zero value is unlimited. On
// cancellation the table functions stop between instances and return the
// rows completed so far (with a nil error), so a deadlined suite still
// prints partial tables instead of nothing.
type Budget struct {
	// Ctx, when non-nil, cancels the run; the in-flight solve degrades to
	// its best incumbent and no further instances are started.
	Ctx context.Context
	// MaxConflictsPerCall bounds each SOLVE call; 0 means unlimited.
	MaxConflictsPerCall int64
	// Workers sets the clause-sharing CDCL portfolio size for each SOLVE
	// call (see core.Config.Workers); ≤ 1 keeps the sequential solver.
	Workers int
	// Trace, when set, is the root span under which every instance's
	// pipeline records its spans.
	Trace *obs.Span
	// Metrics and Recorder, when set, receive the live instrumentation of
	// every solve in the suite (the counters accumulate across instances,
	// which is what a scraper watching a long benchtab run wants).
	Metrics  *metrics.SolverMetrics
	Recorder *flightrec.Recorder
}

// ctx returns the budget's context, defaulting to Background.
func (b Budget) ctx() context.Context {
	if b.Ctx == nil {
		return context.Background()
	}
	return b.Ctx
}

// cancelled reports whether the budget's context is done.
func (b Budget) cancelled() bool { return b.ctx().Err() != nil }

// config builds a core.Config carrying the budget's conflict cap and
// observability sinks.
func (b Budget) config(obj core.Objective) core.Config {
	return core.Config{
		Objective:           obj,
		MaxConflictsPerCall: b.MaxConflictsPerCall,
		Workers:             b.Workers,
		Trace:               b.Trace,
		Metrics:             b.Metrics,
		FlightRecorder:      b.Recorder,
	}
}

// Mode selects instance sizes.
type Mode int

// Modes.
const (
	// Scaled shrinks instances for minute-scale total runtime.
	Scaled Mode = iota
	// Full uses paper-shaped sizes (43 tasks, up to 64 ECUs).
	Full
)

func (m Mode) String() string {
	if m == Full {
		return "full"
	}
	return "scaled"
}

// table1Sizes returns the task-set restriction used in each mode.
func table1Sizes(m Mode) (ringTasks, canTasks int) {
	if m == Full {
		return 43, 43
	}
	return 14, 12
}

// Table1Row is one line of Table 1.
type Table1Row struct {
	Experiment string
	Greedy     int64 // first-fit heuristic cost (−1: infeasible)
	SAResult   int64 // simulated annealing's best cost (−1: infeasible)
	SATResult  int64 // the proven optimum (−1: infeasible)
	Time       time.Duration
	Vars       int
	Literals   int64
}

// Table1 reproduces Table 1: the [5]-shaped workload on the 8-ECU token
// ring minimizing TRT (compared against simulated annealing), and the same
// workload on CAN minimizing bus utilization.
func Table1(m Mode, b Budget) ([]Table1Row, error) {
	nRing, nCAN := table1Sizes(m)
	var rows []Table1Row
	if b.cancelled() {
		return rows, nil
	}

	// Row 1: token ring, minimize TRT, SA vs SAT.
	ring := workload.Partition(workload.T43(), nRing)
	ringOpts := encode.Options{Objective: encode.MinimizeTRT, ObjectiveMedium: -1}
	gr := baseline.GreedyFirstFit(ring, ringOpts)
	grCost := int64(-1)
	if gr.Feasible {
		grCost = gr.Cost
	}
	saOpts := baseline.DefaultSAOptions()
	saOpts.Encode = ringOpts
	saOpts.Ctx = b.Ctx
	sa := baseline.SimulatedAnnealing(ring, saOpts)
	saCost := int64(-1)
	if sa.Feasible {
		saCost = sa.Cost
	}
	start := time.Now()
	sol, err := core.SolveContext(b.ctx(), ring, b.config(core.MinimizeTRT))
	if err != nil {
		return nil, err
	}
	satCost := int64(-1)
	if sol.Feasible {
		satCost = sol.Cost
	}
	rows = append(rows, Table1Row{
		Experiment: fmt.Sprintf("[5] ring %d tasks, min TRT", nRing),
		Greedy:     grCost, SAResult: saCost, SATResult: satCost,
		Time: time.Since(start), Vars: sol.BoolVars, Literals: sol.Literals,
	})
	if b.cancelled() {
		return rows, nil
	}

	// Row 2: CAN, minimize U_CAN.
	can := workload.Partition(workload.T43CAN(), nCAN)
	canOpts := encode.Options{Objective: encode.MinimizeBusUtilization, ObjectiveMedium: -1}
	gr2 := baseline.GreedyFirstFit(can, canOpts)
	grCost2 := int64(-1)
	if gr2.Feasible {
		grCost2 = gr2.Cost
	}
	saOpts2 := baseline.DefaultSAOptions()
	saOpts2.Encode = canOpts
	saOpts2.Ctx = b.Ctx
	sa2 := baseline.SimulatedAnnealing(can, saOpts2)
	saCost2 := int64(-1)
	if sa2.Feasible {
		saCost2 = sa2.Cost
	}
	start = time.Now()
	sol2, err := core.SolveContext(b.ctx(), can, b.config(core.MinimizeBusUtilization))
	if err != nil {
		return nil, err
	}
	satCost2 := int64(-1)
	if sol2.Feasible {
		satCost2 = sol2.Cost
	}
	rows = append(rows, Table1Row{
		Experiment: fmt.Sprintf("[5] + CAN %d tasks, min U_CAN (‰)", nCAN),
		Greedy:     grCost2, SAResult: saCost2, SATResult: satCost2,
		Time: time.Since(start), Vars: sol2.BoolVars, Literals: sol2.Literals,
	})
	return rows, nil
}

// FormatTable1 renders Table 1 in the paper's layout.
func FormatTable1(rows []Table1Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 1. SAT-based optimum vs. heuristics\n")
	fmt.Fprintf(&b, "%-34s %8s %8s %10s %12s %10s %12s\n", "Experiment", "Greedy", "SA", "SAT(opt)", "Time", "Var.", "Lit.")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-34s %8d %8d %10d %12s %10d %12d\n",
			r.Experiment, r.Greedy, r.SAResult, r.SATResult, r.Time.Round(time.Millisecond), r.Vars, r.Literals)
	}
	return b.String()
}

// ScaleRow is one line of Tables 2 and 3.
type ScaleRow struct {
	X        int // ECUs (Table 2) or tasks (Table 3)
	Cost     int64
	Time     time.Duration
	Vars     int
	Literals int64
}

// Table2 reproduces Table 2: a fixed task set allocated to token rings of
// growing ECU count.
func Table2(m Mode, b Budget) ([]ScaleRow, error) {
	series := []int{4, 6, 8, 10}
	tasks := 12
	if m == Full {
		series = []int{8, 16, 25, 32, 45, 64}
		tasks = 30
	}
	var rows []ScaleRow
	for _, n := range series {
		if b.cancelled() {
			return rows, nil
		}
		o := workload.T43Options()
		o.Tasks = tasks
		o.Chains = tasks / 4
		o.Restricted = 2
		o.SeparatedPairs = 1
		sys := workload.Populate(workload.RingArchitecture(n), o)
		start := time.Now()
		sol, err := core.SolveContext(b.ctx(), sys, b.config(core.MinimizeTRT))
		if err != nil {
			return nil, err
		}
		cost := int64(-1)
		if sol.Feasible {
			cost = sol.Cost
		}
		rows = append(rows, ScaleRow{
			X: n, Cost: cost, Time: time.Since(start),
			Vars: sol.BoolVars, Literals: sol.Literals,
		})
	}
	return rows, nil
}

// Table3 reproduces Table 3: partitions of the [5]-shaped set of growing
// size on the 8-ECU ring.
func Table3(m Mode, b Budget) ([]ScaleRow, error) {
	series := []int{5, 8, 11, 14}
	if m == Full {
		series = []int{7, 12, 20, 30, 43}
	}
	full := workload.T43()
	var rows []ScaleRow
	for _, n := range series {
		if b.cancelled() {
			return rows, nil
		}
		sys := workload.Partition(full, n)
		start := time.Now()
		sol, err := core.SolveContext(b.ctx(), sys, b.config(core.MinimizeTRT))
		if err != nil {
			return nil, err
		}
		cost := int64(-1)
		if sol.Feasible {
			cost = sol.Cost
		}
		rows = append(rows, ScaleRow{
			X: n, Cost: cost, Time: time.Since(start),
			Vars: sol.BoolVars, Literals: sol.Literals,
		})
	}
	return rows, nil
}

// FormatScaleTable renders Tables 2/3.
func FormatScaleTable(title, xLabel string, rows []ScaleRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "%-8s %10s %12s %10s %12s\n", xLabel, "Cost", "Time", "Var.", "Lit.")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-8d %10d %12s %10d %12d\n",
			r.X, r.Cost, r.Time.Round(time.Millisecond), r.Vars, r.Literals)
	}
	return b.String()
}

// Table4Row is one line of Table 4.
type Table4Row struct {
	Arch   string
	SumTRT int64
	Time   time.Duration
}

// table4Tasks returns the task-set size used per mode.
func table4Tasks(m Mode) int {
	if m == Full {
		return 43
	}
	return 10
}

// Table4 reproduces Table 4: the workload placed on the hierarchical
// architectures A, B and C of Figure 2, minimizing Σ TRT over all media,
// plus the §6 variant of architecture C with the upper bus swapped to CAN.
func Table4(m Mode, b Budget) ([]Table4Row, error) {
	n := table4Tasks(m)
	build := func(arch *model.System) *model.System {
		return workload.Partition(workload.HierarchicalT43(arch), n)
	}
	var rows []Table4Row
	for _, tc := range []struct {
		name string
		sys  *model.System
	}{
		{"Arch A + [5]", build(workload.ArchitectureA())},
		{"Arch B + [5]", build(workload.ArchitectureB())},
		{"Arch C + [5]", build(workload.ArchitectureC())},
		{"Arch C upper=CAN", workload.SwapMediumToCAN(build(workload.ArchitectureC()), 1)},
	} {
		if b.cancelled() {
			return rows, nil
		}
		start := time.Now()
		sol, err := core.SolveContext(b.ctx(), tc.sys, b.config(core.MinimizeSumTRT))
		if err != nil {
			return nil, err
		}
		cost := int64(-1)
		if sol.Feasible {
			cost = sol.Cost
		}
		rows = append(rows, Table4Row{Arch: tc.name, SumTRT: cost, Time: time.Since(start)})
	}
	return rows, nil
}

// FormatTable4 renders Table 4.
func FormatTable4(rows []Table4Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 4. Hierarchical architectures (Figure 2), min ΣTRT\n")
	fmt.Fprintf(&b, "%-20s %10s %12s\n", "Experiment", "ΣTRT", "Runtime")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-20s %10d %12s\n", r.Arch, r.SumTRT, r.Time.Round(time.Millisecond))
	}
	return b.String()
}

// ReuseRow reports the §7 learned-clause-reuse experiment.
type ReuseRow struct {
	Incremental time.Duration
	Fresh       time.Duration
	Speedup     float64
	CostsAgree  bool
}

// LearnedClauseReuse measures the binary search with and without keeping
// the solver (and its learned clauses) across SOLVE calls.
func LearnedClauseReuse(m Mode, b Budget) (*ReuseRow, error) {
	n := 12
	if m == Full {
		n = 20
	}
	sys := workload.Partition(workload.T43(), n)
	start := time.Now()
	inc, err := core.SolveContext(b.ctx(), sys, b.config(core.MinimizeTRT))
	if err != nil {
		return nil, err
	}
	incTime := time.Since(start)
	start = time.Now()
	freshCfg := b.config(core.MinimizeTRT)
	freshCfg.FreshSolverPerCall = true
	fresh, err := core.SolveContext(b.ctx(), sys, freshCfg)
	if err != nil {
		return nil, err
	}
	freshTime := time.Since(start)
	return &ReuseRow{
		Incremental: incTime,
		Fresh:       freshTime,
		Speedup:     float64(freshTime) / float64(incTime),
		CostsAgree:  inc.Cost == fresh.Cost && inc.Feasible == fresh.Feasible,
	}, nil
}

// HistoryRow is the outcome of the SearchHistory experiment.
type HistoryRow struct {
	Instance string
	Sol      *core.Solution
}

// SearchHistory solves one representative instance and returns its
// per-SOLVE-call iteration history — the per-call view of the §7
// incremental speedup (each call's conflict/decision delta shows how much
// cheaper later calls get as learned clauses accumulate).
func SearchHistory(m Mode, b Budget) (*HistoryRow, error) {
	n := 12
	if m == Full {
		n = 20
	}
	sys := workload.Partition(workload.T43(), n)
	sol, err := core.SolveContext(b.ctx(), sys, b.config(core.MinimizeTRT))
	if err != nil {
		return nil, err
	}
	return &HistoryRow{
		Instance: fmt.Sprintf("[5] ring %d tasks, min TRT (incremental)", n),
		Sol:      sol,
	}, nil
}

// FormatHistory renders the SearchHistory experiment.
func FormatHistory(r *HistoryRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Search history: %s\n", r.Instance)
	b.WriteString(report.IterTable(r.Sol.Iters))
	fmt.Fprintf(&b, "cumulative solver counters: %d conflicts, %d decisions, %d restarts, %d learnt (%d pruned)\n",
		r.Sol.SolverStats.Conflicts, r.Sol.SolverStats.Decisions,
		r.Sol.SolverStats.Restarts, r.Sol.SolverStats.LearntAdded, r.Sol.SolverStats.LearntPruned)
	return b.String()
}

// FormatReuse renders the §7 experiment.
func FormatReuse(r *ReuseRow) string {
	return fmt.Sprintf("§7 learned-clause reuse: incremental %s vs fresh %s → speedup %.2fx (costs agree: %v)\n",
		r.Incremental.Round(time.Millisecond), r.Fresh.Round(time.Millisecond), r.Speedup, r.CostsAgree)
}
