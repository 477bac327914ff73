package main

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"satalloc/internal/core"
	"satalloc/internal/model"
	"satalloc/internal/workload"
)

// The workloads. Each stresses a different layer; bench/README.md records
// the calibration behind every size and rate below.
const (
	paperTables   = "paper-tables"
	unsatFrontier = "unsat-frontier"
	serviceSteady = "service-steady"
)

var workloads = []string{paperTables, unsatFrontier, serviceSteady}

func isService(name string) bool { return name == serviceSteady }

// instance is one batch solve: a system and the objective the paper's
// table minimizes on it.
type instance struct {
	name string
	sys  *model.System
	obj  core.Objective
}

// paperInstances builds the §6 evaluation instances at the sizes of
// experiments.Scaled: Table 1 (token ring and CAN), Table 2 (4-10 ECUs)
// and Table 4 (architectures A, B, C and C with a CAN upper bus).
func paperInstances() []instance {
	insts := []instance{
		{"t1-ring", workload.Partition(workload.T43(), 14), core.MinimizeTRT},
		{"t1-can", workload.Partition(workload.T43CAN(), 12), core.MinimizeBusUtilization},
	}
	for _, n := range []int{4, 6, 8, 10} {
		o := workload.T43Options()
		o.Tasks = 12
		o.Chains = 3
		o.Restricted = 2
		o.SeparatedPairs = 1
		insts = append(insts, instance{fmt.Sprintf("t2-ecus%d", n),
			workload.Populate(workload.RingArchitecture(n), o), core.MinimizeTRT})
	}
	hier := func(arch *model.System) *model.System {
		return workload.Partition(workload.HierarchicalT43(arch), 10)
	}
	return append(insts,
		instance{"t4-a", hier(workload.ArchitectureA()), core.MinimizeSumTRT},
		instance{"t4-b", hier(workload.ArchitectureB()), core.MinimizeSumTRT},
		instance{"t4-c", hier(workload.ArchitectureC()), core.MinimizeSumTRT},
		instance{"t4-c-can", workload.SwapMediumToCAN(hier(workload.ArchitectureC()), 1), core.MinimizeSumTRT},
	)
}

// frontierPool lists the phase-transition rings of unsat-frontier by
// (utilization %, generator seed), picked from generator seeds 1-16 at
// 70-73 % utilization and 11 tasks. Instances refuted at the root in a
// few milliseconds were left out, so every member needs real search; nine
// of the sixteen are infeasible, and feasible and infeasible members
// alternate so any prefix mixes both. The pool is fixed rather than drawn
// from -seed, which only orders each pass, so every run measures the same
// mix and every verdict has a proof-checked reference in expected.json.
var frontierPool = []struct {
	util int
	seed int64
}{
	{70, 5}, {71, 1}, {70, 9}, {71, 2}, {71, 9}, {72, 8}, {72, 9}, {72, 5},
	{73, 9}, {73, 12}, {71, 16}, {70, 2}, {70, 7}, {72, 1}, {71, 8}, {73, 5},
}

func frontierInstances() []instance {
	var insts []instance
	for _, p := range frontierPool {
		o := workload.T43Options()
		o.Seed = p.seed
		o.Tasks = 11
		o.Chains = 4
		o.UtilizationPerECUPercent = p.util
		o.Restricted = 3
		o.SeparatedPairs = 3
		o.MemCapacityPerECU = 14
		insts = append(insts, instance{fmt.Sprintf("uf-u%d-s%d", p.util, p.seed),
			workload.Populate(workload.RingArchitecture(4), o), core.MinimizeTRT})
	}
	return insts
}

// batchInstances returns the instance list of a batch workload.
func batchInstances(name string) []instance {
	if name == paperTables {
		return paperInstances()
	}
	return frontierInstances()
}

// ringSpec is cmd/loadgen's default job: its "ring" kind at 2 ECUs and 4
// tasks, for one generator seed.
func ringSpec(seed int64) *model.System {
	o := workload.T43Options()
	o.Seed = seed
	o.Tasks = 4
	o.Chains = 1
	o.Restricted = 0
	o.SeparatedPairs = 0
	o.ForcedRemoteChains = 0
	return workload.Populate(workload.RingArchitecture(2), o)
}

// specJSON renders a system as the body of POST /jobs.
func specJSON(sys *model.System) ([]byte, error) {
	sp := core.ToSpec(sys)
	sp.Meta = map[string]string{"generator": "satbench", "tenant": "bench"}
	return json.Marshal(sp)
}

// shuffled returns a seed-determined permutation of 0..n-1 for pass k.
func shuffled(seed int64, k, n int) []int {
	return rand.New(rand.NewSource(seed*7919 + int64(k))).Perm(n)
}
