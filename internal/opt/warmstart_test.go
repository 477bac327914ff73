package opt

import (
	"context"
	"fmt"
	"testing"
	"time"

	"satalloc/internal/baseline"
	"satalloc/internal/encode"
	"satalloc/internal/model"
	"satalloc/internal/sat"
	"satalloc/internal/workload"
)

// warmSpec is one instance of the warm-start corpus.
type warmSpec struct {
	name string
	sys  *model.System
	obj  encode.Objective
	// exhaustive marks single-ring specs small enough for the brute-force
	// oracle, whose optimum is exact there.
	exhaustive bool
}

// warmCorpus covers every cmd/workgen kind at sizes that solve in well
// under a second: partitions of the Table 1 sets, seeded 2-ECU rings small
// enough for baseline.Exhaustive (optima at and above the structural
// bound, infeasible members, greedy costs above the optimum) and a 4-ECU
// ring, the three hierarchical architectures and the automotive instance.
func warmCorpus() []warmSpec {
	specs := []warmSpec{
		{name: "t43", sys: workload.Partition(workload.T43(), 6), obj: encode.MinimizeTRT},
		{name: "t43can", sys: workload.Partition(workload.T43CAN(), 6), obj: encode.MinimizeBusUtilization},
	}
	for seed := int64(1); seed <= 6; seed++ {
		o := workload.T43Options()
		o.Seed = seed
		o.Tasks = 6
		o.Chains = 2
		o.Restricted = 1
		o.SeparatedPairs = 1
		o.ForcedRemoteChains = 2
		specs = append(specs, warmSpec{
			name:       fmt.Sprintf("ring-e2-s%d", seed),
			sys:        workload.Populate(workload.RingArchitecture(2), o),
			obj:        encode.MinimizeTRT,
			exhaustive: true,
		})
	}
	specs = append(specs, warmSpec{name: "ring-e4", sys: table2Spec(4), obj: encode.MinimizeTRT})
	hier := func(arch *model.System) *model.System {
		return workload.Partition(workload.HierarchicalT43(arch), 5)
	}
	return append(specs,
		warmSpec{name: "archA", sys: hier(workload.ArchitectureA()), obj: encode.MinimizeSumTRT},
		warmSpec{name: "archB", sys: hier(workload.ArchitectureB()), obj: encode.MinimizeSumTRT},
		warmSpec{name: "archC", sys: hier(workload.ArchitectureC()), obj: encode.MinimizeSumTRT},
		warmSpec{name: "automotive", sys: workload.SwapMediumToCAN(hier(workload.ArchitectureC()), 1), obj: encode.MinimizeSumTRT},
	)
}

// greedyIncumbent is the warm start core.SolveContext hands Minimize.
func greedyIncumbent(sys *model.System, opts encode.Options) *Incumbent {
	gr := baseline.GreedyFirstFit(sys, opts)
	if !gr.Feasible {
		return &Incumbent{}
	}
	return &Incumbent{Allocation: gr.Allocation, Cost: gr.Cost}
}

// TestWarmStartAgreesWithColdSearch runs the corpus cold and warm-started
// from the greedy incumbent, in both solver modes: status and cost must
// agree, and on the exhaustive-tractable specs both must match the
// brute-force optimum.
func TestWarmStartAgreesWithColdSearch(t *testing.T) {
	warmed, oracled := 0, 0
	for _, spec := range warmCorpus() {
		opts := encode.Options{Objective: spec.obj, ObjectiveMedium: -1}
		inc := greedyIncumbent(spec.sys, opts)
		if inc.Allocation != nil {
			warmed++
		}
		for _, incremental := range []bool{true, false} {
			run := func(inc *Incumbent) *Result {
				enc, err := encode.Encode(spec.sys, opts)
				if err != nil {
					t.Fatalf("%s: %v", spec.name, err)
				}
				res, err := Minimize(enc, Options{Incremental: incremental, Incumbent: inc})
				if err != nil {
					t.Fatalf("%s (incremental=%v): %v", spec.name, incremental, err)
				}
				return res
			}
			cold, warm := run(nil), run(inc)
			if cold.Status != warm.Status || cold.Cost != warm.Cost {
				t.Fatalf("%s (incremental=%v): cold %v/%d, warm %v/%d (greedy cost %d)",
					spec.name, incremental, cold.Status, cold.Cost, warm.Status, warm.Cost, inc.Cost)
			}
		}
		if !spec.exhaustive {
			continue
		}
		ex := baseline.Exhaustive(spec.sys, opts, 0)
		enc, err := encode.Encode(spec.sys, opts)
		if err != nil {
			t.Fatal(err)
		}
		warm, err := Minimize(enc, Options{Incremental: true, Incumbent: inc})
		if err != nil {
			t.Fatal(err)
		}
		if ex.Feasible != (warm.Status == Optimal) || (ex.Feasible && ex.Cost != warm.Cost) {
			t.Fatalf("%s: exhaustive feasible=%v cost=%d, warm-started %v cost=%d",
				spec.name, ex.Feasible, ex.Cost, warm.Status, warm.Cost)
		}
		oracled++
	}
	if warmed < 4 || oracled < 3 {
		t.Fatalf("corpus too weak: %d specs warm-started, %d checked against the oracle", warmed, oracled)
	}
}

// TestWarmStartBelowOptimumFallsBack gives the search an incumbent whose
// claimed cost undercuts the optimum: the bounded first probe must come
// back UNSAT, the search must continue from L = c+1 and still prove the
// true optimum — and on an infeasible spec the fallback probe must prove
// infeasibility without an error.
func TestWarmStartBelowOptimumFallsBack(t *testing.T) {
	sys := table2Spec(4)
	opts := encode.Options{Objective: encode.MinimizeTRT, ObjectiveMedium: -1}
	enc, err := encode.Encode(sys, opts)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := Minimize(enc, Options{Incremental: true})
	if err != nil {
		t.Fatal(err)
	}
	claimed := cold.Cost - 1
	if claimed < enc.Cost.Lo {
		t.Fatalf("optimum %d sits at the structural bound %d; the spec cannot undercut it", cold.Cost, enc.Cost.Lo)
	}
	for _, incremental := range []bool{true, false} {
		enc, err := encode.Encode(sys, opts)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Minimize(enc, Options{
			Incremental: incremental,
			Incumbent:   &Incumbent{Allocation: cold.Allocation, Cost: claimed},
		})
		if err != nil {
			t.Fatalf("incremental=%v: %v", incremental, err)
		}
		if res.Status != Optimal || res.Cost != cold.Cost {
			t.Fatalf("incremental=%v: %v cost %d, want optimal %d", incremental, res.Status, res.Cost, cold.Cost)
		}
		first, second := res.Iters[0], res.Iters[1]
		if first.Hi != claimed || first.Status != sat.Unsat {
			t.Fatalf("incremental=%v: first probe %+v, want UNSAT over cost ≤ %d", incremental, first, claimed)
		}
		if second.Lo != claimed+1 || second.Hi != -1 || second.Status != sat.Sat {
			t.Fatalf("incremental=%v: second probe %+v, want SAT over cost ≥ %d", incremental, second, claimed+1)
		}
	}

	// The overloaded ring with an incumbent of the ring before overloading.
	stale := greedyIncumbent(tinyRing(), opts)
	badEnc, err := encode.Encode(overloaded(), opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Minimize(badEnc, Options{
		Incremental: true,
		Incumbent:   &Incumbent{Allocation: stale.Allocation, Cost: badEnc.Cost.Lo},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Infeasible || res.SolveCalls != 2 {
		t.Fatalf("infeasible spec: %v after %d calls, want infeasible after the bounded probe and its fallback",
			res.Status, res.SolveCalls)
	}
}

// TestWarmStartNeverReturnsIncumbent checks the incumbent is only a hint:
// a search interrupted before its first model is Aborted with no
// allocation, even though the incumbent was feasible.
func TestWarmStartNeverReturnsIncumbent(t *testing.T) {
	sys := tinyRing()
	opts := encode.Options{Objective: encode.MinimizeTRT, ObjectiveMedium: -1}
	inc := greedyIncumbent(sys, opts)
	if inc.Allocation == nil {
		t.Fatal("greedy found no incumbent on the tiny ring")
	}
	enc, err := encode.Encode(sys, opts)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithDeadline(context.Background(), time.Unix(0, 0))
	defer cancel()
	res, err := Minimize(enc, Options{Incremental: true, Ctx: ctx, Incumbent: inc})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Aborted || res.Allocation != nil {
		t.Fatalf("status %v with allocation %v, want aborted with none", res.Status, res.Allocation != nil)
	}
}

// TestWarmStartProofCertifies runs warm-started searches under proof
// logging — one whose bounded first probe finds a model, one whose first
// probe is refuted and whose L := c+1 fallback is asserted — and requires
// each to certify with every UNSAT probe replayed.
func TestWarmStartProofCertifies(t *testing.T) {
	sys := table2Spec(4)
	opts := encode.Options{Objective: encode.MinimizeTRT, ObjectiveMedium: -1}
	inc := greedyIncumbent(sys, opts)
	if inc.Allocation == nil {
		t.Fatal("greedy found no incumbent on the 4-ECU ring")
	}
	enc, err := encode.Encode(sys, opts)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := Minimize(enc, Options{Incremental: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []*Incumbent{inc, {Allocation: inc.Allocation, Cost: cold.Cost - 1}} {
		for _, incremental := range []bool{true, false} {
			enc, err := encode.Encode(sys, opts)
			if err != nil {
				t.Fatal(err)
			}
			res, err := Minimize(enc, Options{Incremental: incremental, Proof: true, Incumbent: c})
			if err != nil {
				t.Fatalf("cost %d, incremental=%v: %v", c.Cost, incremental, err)
			}
			if res.Status != Optimal || res.Cost != cold.Cost || res.Certificate == nil {
				t.Fatalf("cost %d, incremental=%v: %v cost %d certified=%v, want certified optimum %d",
					c.Cost, incremental, res.Status, res.Cost, res.Certificate != nil, cold.Cost)
			}
			unsat := 0
			for _, it := range res.Iters {
				if it.Status == sat.Unsat {
					unsat++
				}
			}
			if unsat == 0 || res.Certificate.Probes+res.Certificate.RootConflicts < unsat {
				t.Fatalf("cost %d, incremental=%v: %d UNSAT probes, certificate covers %d probes and %d root conflicts",
					c.Cost, incremental, unsat, res.Certificate.Probes, res.Certificate.RootConflicts)
			}
		}
	}
}

// TestWarmStartParallelMatchesSequential races a two-worker portfolio from
// the greedy incumbent and requires the sequential warm-started verdict.
func TestWarmStartParallelMatchesSequential(t *testing.T) {
	for _, spec := range warmCorpus()[:4] {
		opts := encode.Options{Objective: spec.obj, ObjectiveMedium: -1}
		inc := greedyIncumbent(spec.sys, opts)
		var got [2]*Result
		for i, workers := range []int{1, 2} {
			enc, err := encode.Encode(spec.sys, opts)
			if err != nil {
				t.Fatal(err)
			}
			if got[i], err = Minimize(enc, Options{Incremental: true, Workers: workers, Incumbent: inc}); err != nil {
				t.Fatalf("%s, %d workers: %v", spec.name, workers, err)
			}
		}
		if got[0].Status != got[1].Status || got[0].Cost != got[1].Cost {
			t.Fatalf("%s: sequential %v/%d, portfolio %v/%d",
				spec.name, got[0].Status, got[0].Cost, got[1].Status, got[1].Cost)
		}
	}
}
