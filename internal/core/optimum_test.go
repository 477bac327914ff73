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

// simHorizon is a common multiple of every period the Tiny and TinyTwoBus
// generators draw, so a simulation covers whole hyperperiods.
const simHorizon = 2400

// checkOptimum is the differential check of one generated spec. The
// exhaustive oracle and the SAT binary search must agree on the verdict
// and the optimal cost, for the sequential solver under proof logging and
// for a two-worker portfolio, and the proof-logged verdict must pass
// checkEvidence. It returns the verdict.
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
	checkEvidence(t, sys, seq)
	return ex.Feasible
}

// checkEvidence checks what backs a proof-logged solve's verdict: every
// UNSAT probe must certify, and a feasible verdict's allocation must pass
// the response-time analysis, with every task response and end-to-end
// message latency the discrete-event simulator observes within the
// analysed bound.
func checkEvidence(t *testing.T, sys *model.System, sol *Solution) {
	t.Helper()
	cert := sol.Certificate
	if cert == nil {
		t.Fatalf("%s: no certificate under Proof", sys.Name)
	}
	unsat := 0
	for _, it := range sol.Iters {
		if it.Status == sat.Unsat {
			unsat++
		}
	}
	if cert.Probes+cert.RootConflicts < unsat {
		t.Fatalf("%s: %d UNSAT probes, %d certified and %d root refutations",
			sys.Name, unsat, cert.Probes, cert.RootConflicts)
	}

	if !sol.Feasible {
		return
	}
	a := sol.Allocation
	res := rta.Analyze(sys, a)
	if !res.Schedulable {
		t.Fatalf("%s: decoded allocation fails the RTA: %v", sys.Name, res.Violations)
	}
	// The simulator times a job from its nominal release, the analysis
	// from its jittered activation, so a task's bound is w + J.
	for _, ecu := range sys.ECUs {
		for id, o := range sim.SimulateECU(sys, a, ecu.ID, simHorizon) {
			if bound := res.TaskResponse[id] + sys.TaskByID(id).Jitter; o.MaxResponse > bound {
				t.Fatalf("%s: task %d simulated response %d > RTA bound %d",
					sys.Name, id, o.MaxResponse, bound)
			}
		}
	}
	for id, o := range sim.SimulateSystem(sys, a, simHorizon) {
		if bound := sim.EndToEndBound(sys, a, id); o.Deliveries > 0 && o.MaxLatency > bound {
			t.Fatalf("%s: message %d simulated latency %d > bound %d",
				sys.Name, id, o.MaxLatency, bound)
		}
	}
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

// TestTwoBusOptimumWithinOracle runs the certified sequential solve on
// specs whose one message crosses a gateway. The exhaustive oracle splits
// the message's deadline evenly over the hops, so on these specs its cost
// is only achievable, not minimal: an oracle-feasible spec must be proven
// optimal at no more than the oracle's cost. The verdict's evidence,
// including the simulated latency across the gateway, is checked on every
// seed.
func TestTwoBusOptimumWithinOracle(t *testing.T) {
	checked := 0
	for seed := int64(0); seed < 8; seed++ {
		sys := workload.TinyTwoBus(seed)
		ex := baseline.Exhaustive(sys, encode.Options{Objective: MinimizeSumTRT, ObjectiveMedium: -1}, 0)
		sol, err := Solve(sys, Config{Objective: MinimizeSumTRT, Workers: 1, Proof: true})
		if err != nil {
			t.Fatalf("%s: %v", sys.Name, err)
		}
		if ex.Feasible {
			if sol.Status != opt.Optimal {
				t.Fatalf("%s: oracle feasible at cost %d, solve says %v", sys.Name, ex.Cost, sol.Status)
			}
			if sol.Cost > ex.Cost {
				t.Fatalf("%s: optimum %d above the oracle's achievable %d", sys.Name, sol.Cost, ex.Cost)
			}
			checked++
		}
		checkEvidence(t, sys, sol)
		if !sol.Feasible {
			continue
		}
		if hops := len(sol.Allocation.Route[0]); hops != 2 {
			t.Fatalf("%s: message routed over %d media, want both rings", sys.Name, hops)
		}
		if o := sim.SimulateSystem(sys, sol.Allocation, simHorizon)[0]; o == nil || o.Deliveries == 0 {
			t.Fatalf("%s: simulator delivered no instance of the gateway message", sys.Name)
		}
	}
	if checked == 0 {
		t.Fatal("no oracle-feasible two-bus spec")
	}
	t.Logf("%d of 8 two-bus specs oracle-feasible", checked)
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
