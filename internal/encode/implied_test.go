package encode

import (
	"fmt"
	"testing"

	"satalloc/internal/bv"
	"satalloc/internal/model"
	"satalloc/internal/sat"
	"satalloc/internal/workload"
)

// checkImplied encodes sys with constraint groups and compares two
// solvers over the same formula: one with every selector asserted, one
// with the utilization selectors left free. The rows are implied, so the
// verdict and the optimum must not move.
func checkImplied(t *testing.T, name string, sys *model.System, obj Objective) {
	t.Helper()
	enc, err := Encode(sys, Options{Objective: obj, ObjectiveMedium: -1, Groups: true})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	full, err := bv.Compile(enc.F)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	relaxed, err := bv.Compile(enc.F)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	var rest []sat.Lit
	for i, l := range selLits(t, enc, relaxed) {
		if enc.Groups()[i].Kind != GroupUtilization {
			rest = append(rest, l)
		}
	}
	all := selLits(t, enc, full)

	if full.Solve(all...) == sat.Unsat {
		if st := relaxed.Solve(rest...); st != sat.Unsat {
			t.Fatalf("%s: infeasible with the utilization rows, %v without", name, st)
		}
		return
	}
	opt := minCost(t, full, enc, all)
	for _, probe := range []struct {
		bound int64
		want  sat.Status
	}{{opt, sat.Sat}, {opt - 1, sat.Unsat}} {
		hi, err := relaxed.UpperBoundLit(enc.Cost, probe.bound)
		if err != nil {
			t.Fatal(err)
		}
		if st := relaxed.Solve(append([]sat.Lit{hi}, rest...)...); st != probe.want {
			t.Fatalf("%s: optimum %d with the utilization rows; cost ≤ %d is %v without them",
				name, opt, probe.bound, st)
		}
	}
}

// TestUtilizationRowsAreImplied checks the rows on the generated
// differential corpus and on the benchmark's paper-tables and
// unsat-frontier instances.
func TestUtilizationRowsAreImplied(t *testing.T) {
	for seed := int64(1); seed <= 48; seed++ {
		sys := workload.Tiny(seed, 60+int(seed*50/48))
		obj := MinimizeTRT
		if sys.Media[0].Kind == model.CAN {
			obj = MinimizeBusUtilization
		}
		checkImplied(t, sys.Name, sys, obj)
	}
	for _, in := range benchInstances() {
		checkImplied(t, in.name, in.sys, in.obj)
	}
}

type benchInstance struct {
	name string
	sys  *model.System
	obj  Objective
}

// benchInstances rebuilds the 26 batch instances of the end-to-end
// benchmark (bench/workloads.go): the ten paper-tables instances and the
// sixteen unsat-frontier rings.
func benchInstances() []benchInstance {
	insts := []benchInstance{
		{"t1-ring", workload.Partition(workload.T43(), 14), MinimizeTRT},
		{"t1-can", workload.Partition(workload.T43CAN(), 12), MinimizeBusUtilization},
	}
	for _, n := range []int{4, 6, 8, 10} {
		o := workload.T43Options()
		o.Tasks = 12
		o.Chains = 3
		o.Restricted = 2
		o.SeparatedPairs = 1
		insts = append(insts, benchInstance{fmt.Sprintf("t2-ecus%d", n),
			workload.Populate(workload.RingArchitecture(n), o), MinimizeTRT})
	}
	hier := func(arch *model.System) *model.System {
		return workload.Partition(workload.HierarchicalT43(arch), 10)
	}
	insts = append(insts,
		benchInstance{"t4-a", hier(workload.ArchitectureA()), MinimizeSumTRT},
		benchInstance{"t4-b", hier(workload.ArchitectureB()), MinimizeSumTRT},
		benchInstance{"t4-c", hier(workload.ArchitectureC()), MinimizeSumTRT},
		benchInstance{"t4-c-can", workload.SwapMediumToCAN(hier(workload.ArchitectureC()), 1), MinimizeSumTRT},
	)
	for _, p := range []struct {
		util int
		seed int64
	}{
		{70, 5}, {71, 1}, {70, 9}, {71, 2}, {71, 9}, {72, 8}, {72, 9}, {72, 5},
		{73, 9}, {73, 12}, {71, 16}, {70, 2}, {70, 7}, {72, 1}, {71, 8}, {73, 5},
	} {
		o := workload.T43Options()
		o.Seed = p.seed
		o.Tasks = 11
		o.Chains = 4
		o.UtilizationPerECUPercent = p.util
		o.Restricted = 3
		o.SeparatedPairs = 3
		o.MemCapacityPerECU = 14
		insts = append(insts, benchInstance{fmt.Sprintf("uf-u%d-s%d", p.util, p.seed),
			workload.Populate(workload.RingArchitecture(4), o), MinimizeTRT})
	}
	return insts
}
