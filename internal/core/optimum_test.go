package core

import (
	"testing"

	"satalloc/internal/baseline"
	"satalloc/internal/encode"
	"satalloc/internal/model"
	"satalloc/internal/opt"
	"satalloc/internal/rta"
	"satalloc/internal/sat"
	"satalloc/internal/sim"
	"satalloc/internal/workload"
)

// objectiveFor picks the objective the paper minimizes on the spec's
// single medium: the round length of a token ring, the utilization of a
// CAN bus.
func objectiveFor(sys *model.System) Objective {
	if sys.Media[0].Kind == model.CAN {
		return MinimizeBusUtilization
	}
	return MinimizeTRT
}

// checkOptimum is the differential check of one generated spec. The
// exhaustive oracle and the SAT binary search must agree on the verdict
// and the optimal cost, for the sequential solver under proof logging and
// for a two-worker portfolio; every UNSAT probe of the proof-logged run
// must certify; and a feasible verdict's allocation must pass the
// response-time analysis, with every response the discrete-event
// simulator observes within the analysed bound. It returns the verdict.
func checkOptimum(t *testing.T, sys *model.System) (feasible bool) {
	t.Helper()
	obj := objectiveFor(sys)
	ex := baseline.Exhaustive(sys, encode.Options{Objective: obj, ObjectiveMedium: -1}, 0)
	want := opt.Infeasible
	if ex.Feasible {
		want = opt.Optimal
	}

	seq, err := Solve(sys, Config{Objective: obj, Workers: 1, Proof: true})
	if err != nil {
		t.Fatalf("%s: %v", sys.Name, err)
	}
	par, err := Solve(sys, Config{Objective: obj, Workers: 2})
	if err != nil {
		t.Fatalf("%s: %v", sys.Name, err)
	}
	for _, run := range []struct {
		name string
		sol  *Solution
	}{{"workers=1", seq}, {"workers=2", par}} {
		if run.sol.Status != want {
			t.Fatalf("%s %s: status %v, exhaustive %v", sys.Name, run.name, run.sol.Status, want)
		}
		if ex.Feasible && run.sol.Cost != ex.Cost {
			t.Fatalf("%s %s: optimum %d, exhaustive %d", sys.Name, run.name, run.sol.Cost, ex.Cost)
		}
	}

	cert := seq.Certificate
	if cert == nil {
		t.Fatalf("%s: no certificate under Proof", sys.Name)
	}
	unsat := 0
	for _, it := range seq.Iters {
		if it.Status == sat.Unsat {
			unsat++
		}
	}
	if cert.Probes+cert.RootConflicts < unsat {
		t.Fatalf("%s: %d UNSAT probes, %d certified and %d root refutations",
			sys.Name, unsat, cert.Probes, cert.RootConflicts)
	}

	if !ex.Feasible {
		return false
	}
	a := seq.Allocation
	res := rta.Analyze(sys, a)
	if !res.Schedulable {
		t.Fatalf("%s: decoded allocation fails the RTA: %v", sys.Name, res.Violations)
	}
	// The simulator times a job from its nominal release, the analysis
	// from its jittered activation, so a task's bound is w + J.
	const horizon = 2400 // the hyperperiod of the generator's periods
	for _, ecu := range sys.ECUs {
		for id, o := range sim.SimulateECU(sys, a, ecu.ID, horizon) {
			if bound := res.TaskResponse[id] + sys.TaskByID(id).Jitter; o.MaxResponse > bound {
				t.Fatalf("%s: task %d simulated response %d > RTA bound %d",
					sys.Name, id, o.MaxResponse, bound)
			}
		}
	}
	for id, o := range sim.SimulateSystem(sys, a, horizon) {
		if bound := sim.EndToEndBound(sys, a, id); o.Deliveries > 0 && o.MaxLatency > bound {
			t.Fatalf("%s: message %d simulated latency %d > bound %d",
				sys.Name, id, o.MaxLatency, bound)
		}
	}
	return true
}

// TestOptimumMatchesExhaustive sweeps the per-ECU utilization of the
// generated specs across 60–110 %, so the utilization rows are slack on
// some specs and tight or violated on others.
func TestOptimumMatchesExhaustive(t *testing.T) {
	feasible := 0
	for seed := int64(1); seed <= 48; seed++ {
		if checkOptimum(t, workload.Tiny(seed, 60+int(seed*50/48))) {
			feasible++
		}
	}
	t.Logf("%d of 48 specs feasible", feasible)
}

// TestOneSidedSeparationMatchesExhaustive drops the lower-ID task's entry
// of every separated pair of a generated spec, which model.Validate
// accepts: the pair must still be kept apart, so the verdict and the
// optimum stay the oracle's.
func TestOneSidedSeparationMatchesExhaustive(t *testing.T) {
	sys := workload.Tiny(47, 50)
	dropped := 0
	for _, task := range sys.Tasks {
		kept := task.Separation[:0]
		for _, other := range task.Separation {
			if other > task.ID {
				dropped++
				continue
			}
			kept = append(kept, other)
		}
		task.Separation = kept
	}
	if dropped == 0 {
		t.Fatal("spec has no separated pair")
	}
	if err := sys.Validate(); err != nil {
		t.Fatal(err)
	}
	checkOptimum(t, sys)
}

// FuzzOptimum runs the differential check on generated specs: the seed
// picks the instance and util the per-ECU utilization, folded into
// 60–110 %.
func FuzzOptimum(f *testing.F) {
	f.Add(int64(1), uint8(10))
	f.Add(int64(7), uint8(35))
	f.Add(int64(12), uint8(50))
	f.Fuzz(func(t *testing.T, seed int64, util uint8) {
		checkOptimum(t, workload.Tiny(seed, 60+int(util)%51))
	})
}
