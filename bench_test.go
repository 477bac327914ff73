// Package satalloc's top-level benchmarks regenerate every table and
// figure of the paper's evaluation (§6) plus the §7 learned-clause-reuse
// claim, and add ablation benchmarks for the design choices DESIGN.md
// calls out (incremental vs fresh solving, const-multiplier circuits,
// SA vs SAT effort).
//
//	go test -bench=. -benchmem
//
// Benchmarks run the Scaled experiment mode (see internal/experiments);
// run `go run ./cmd/benchtab -mode full` for paper-shaped sizes.
package satalloc

import (
	"fmt"
	"testing"

	"satalloc/internal/baseline"
	"satalloc/internal/core"
	"satalloc/internal/encode"
	"satalloc/internal/experiments"
	"satalloc/internal/model"
	"satalloc/internal/opt"
	"satalloc/internal/workload"
)

// BenchmarkTable1TokenRing regenerates Table 1, row 1: the [5]-shaped
// workload on the 8-ECU token ring, SAT-optimal TRT vs heuristics.
func BenchmarkTable1TokenRing(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sys := workload.Partition(workload.T43(), 14)
		sol, err := core.Solve(sys, core.Config{Objective: core.MinimizeTRT})
		if err != nil {
			b.Fatal(err)
		}
		if !sol.Feasible {
			b.Fatal("infeasible")
		}
		b.ReportMetric(float64(sol.Cost), "TRT-ticks")
		b.ReportMetric(float64(sol.BoolVars), "bool-vars")
		b.ReportMetric(float64(sol.Literals), "literals")
		b.ReportMetric(float64(len(sys.Tasks)), "tasks")
	}
}

// BenchmarkTable1CAN regenerates Table 1, row 2: minimum CAN utilization.
func BenchmarkTable1CAN(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sys := workload.Partition(workload.T43CAN(), 12)
		sol, err := core.Solve(sys, core.Config{Objective: core.MinimizeBusUtilization})
		if err != nil {
			b.Fatal(err)
		}
		if !sol.Feasible {
			b.Fatal("infeasible")
		}
		b.ReportMetric(float64(sol.Cost), "U_CAN-milli")
		b.ReportMetric(float64(sol.BoolVars), "bool-vars")
		b.ReportMetric(float64(len(sys.Tasks)), "tasks")
	}
}

// BenchmarkTable2ArchScaling regenerates Table 2: complexity vs ECU count
// (one sub-benchmark per architecture size).
func BenchmarkTable2ArchScaling(b *testing.B) {
	for _, n := range []int{4, 6, 8, 10} {
		b.Run(fmt.Sprintf("ECUs=%d", n), func(b *testing.B) {
			o := workload.T43Options()
			o.Tasks = 12
			o.Chains = 3
			o.Restricted = 2
			o.SeparatedPairs = 1
			for i := 0; i < b.N; i++ {
				sys := workload.Populate(workload.RingArchitecture(n), o)
				sol, err := core.Solve(sys, core.Config{Objective: core.MinimizeTRT})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(sol.BoolVars), "bool-vars")
				b.ReportMetric(float64(sol.Literals), "literals")
				b.ReportMetric(float64(len(sys.Tasks)), "tasks")
			}
		})
	}
}

// BenchmarkTable3TaskScaling regenerates Table 3: complexity vs task-set
// size (partitions of the [5]-shaped set).
func BenchmarkTable3TaskScaling(b *testing.B) {
	full := workload.T43()
	for _, n := range []int{5, 8, 11, 14} {
		b.Run(fmt.Sprintf("tasks=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sys := workload.Partition(full, n)
				sol, err := core.Solve(sys, core.Config{Objective: core.MinimizeTRT})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(sol.BoolVars), "bool-vars")
				b.ReportMetric(float64(sol.Literals), "literals")
			}
		})
	}
}

// BenchmarkTable4Hierarchical regenerates Table 4: the Figure 2
// architectures A, B, C, and C with a CAN upper bus, minimizing ΣTRT.
func BenchmarkTable4Hierarchical(b *testing.B) {
	build := func(arch *model.System, can bool) *model.System {
		if can {
			workload.SwapMediumToCAN(arch, 1)
		}
		return workload.Partition(workload.HierarchicalT43(arch), 10)
	}
	cases := []struct {
		name string
		mk   func() *model.System
	}{
		{"ArchA", func() *model.System { return build(workload.ArchitectureA(), false) }},
		{"ArchB", func() *model.System { return build(workload.ArchitectureB(), false) }},
		{"ArchC", func() *model.System { return build(workload.ArchitectureC(), false) }},
		{"ArchC-CAN", func() *model.System { return build(workload.ArchitectureC(), true) }},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sol, err := core.Solve(tc.mk(), core.Config{Objective: core.MinimizeSumTRT})
				if err != nil {
					b.Fatal(err)
				}
				if sol.Feasible {
					b.ReportMetric(float64(sol.Cost), "sumTRT-ticks")
				}
			}
		})
	}
}

// BenchmarkLearnedClauseReuse regenerates the §7 claim: keeping the solver
// (and its learned clauses) across the binary-search SOLVE calls vs a
// fresh solver per call.
func BenchmarkLearnedClauseReuse(b *testing.B) {
	sys := workload.Partition(workload.T43(), 12)
	b.Run("incremental", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			enc, err := encode.Encode(sys, encode.Options{Objective: encode.MinimizeTRT, ObjectiveMedium: -1})
			if err != nil {
				b.Fatal(err)
			}
			if _, err := opt.Minimize(enc, opt.Options{Incremental: true}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("fresh-per-call", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			enc, err := encode.Encode(sys, encode.Options{Objective: encode.MinimizeTRT, ObjectiveMedium: -1})
			if err != nil {
				b.Fatal(err)
			}
			if _, err := opt.Minimize(enc, opt.Options{Incremental: false}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkParallelSolve races the clause-sharing CDCL portfolio against
// the sequential solver on phase-transition allocations (4-ECU ring, 14
// tasks, ~70% utilization, tight memory) — the workload shape where the
// binary search's SOLVE windows dominate the wall clock. Two windows are
// measured: a feasible instance (SAT incumbents plus the final UNSAT
// bound proof) and an infeasible one (a single hard UNSAT proof, where
// clause sharing is strongest). The conflicts metric records total search
// effort alongside ns/op, so the BENCH_*.json trail captures work and
// wall clock separately: on a single-core host the racing workers
// time-multiplex and Workers=4 trades wall clock for robustness, while
// with GOMAXPROCS ≥ 4 the race runs concurrently and ns/op tracks the
// winning worker's conflict count — the quantity sharing drives well
// below the sequential trajectory's. Each window sweeps Workers ∈
// {1, 2, 4}; together with the num_cpu/gomaxprocs fields bench2json
// stamps on every BENCH_*.json point, that yields a portfolio-scaling
// curve per host.
func BenchmarkParallelSolve(b *testing.B) {
	windows := []struct {
		name string
		seed int64
		util int
	}{
		{"binary-search", 7, 70}, // feasible: SAT incumbents + UNSAT optimum proof
		{"unsat-proof", 3, 73},   // infeasible: one hard UNSAT window
	}
	for _, w := range windows {
		o := workload.T43Options()
		o.Seed = w.seed
		o.Tasks = 14
		o.Chains = 4
		o.UtilizationPerECUPercent = w.util
		o.Restricted = 3
		o.SeparatedPairs = 3
		o.MemCapacityPerECU = 14
		sys := workload.Populate(workload.RingArchitecture(4), o)
		for _, workers := range []int{1, 2, 4} {
			b.Run(fmt.Sprintf("%s/workers=%d", w.name, workers), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					enc, err := encode.Encode(sys, encode.Options{Objective: encode.MinimizeTRT, ObjectiveMedium: -1})
					if err != nil {
						b.Fatal(err)
					}
					res, err := opt.Minimize(enc, opt.Options{Incremental: true, Workers: workers})
					if err != nil {
						b.Fatal(err)
					}
					b.ReportMetric(float64(res.Conflicts), "conflicts/op")
					b.ReportMetric(float64(res.SolveCalls), "solve-calls/op")
				}
			})
		}
	}
}

// BenchmarkBaselineSA measures the simulated-annealing allocator at the
// Table 1 budget — the wall-clock comparison point for the SAT runs.
func BenchmarkBaselineSA(b *testing.B) {
	sys := workload.Partition(workload.T43(), 14)
	opts := baseline.DefaultSAOptions()
	opts.Encode = encode.Options{Objective: encode.MinimizeTRT, ObjectiveMedium: -1}
	opts.Steps = 5000
	opts.Restarts = 1
	for i := 0; i < b.N; i++ {
		res := baseline.SimulatedAnnealing(sys, opts)
		if res.Feasible {
			b.ReportMetric(float64(res.Cost), "TRT-ticks")
		}
	}
}

// BenchmarkSuite runs the entire scaled experiment suite once per
// iteration — the "regenerate the whole evaluation section" button.
func BenchmarkSuite(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table1(experiments.Scaled, experiments.Budget{}); err != nil {
			b.Fatal(err)
		}
		if _, err := experiments.Table2(experiments.Scaled, experiments.Budget{}); err != nil {
			b.Fatal(err)
		}
		if _, err := experiments.Table3(experiments.Scaled, experiments.Budget{}); err != nil {
			b.Fatal(err)
		}
		if _, err := experiments.Table4(experiments.Scaled, experiments.Budget{}); err != nil {
			b.Fatal(err)
		}
	}
}
