package encode

import (
	"testing"

	"satalloc/internal/bv"
	"satalloc/internal/sat"
)

// selLits compiles the grouped encoding and returns the positive selector
// literal of every group.
func selLits(t *testing.T, enc *Encoding, sys *bv.System) []sat.Lit {
	t.Helper()
	var lits []sat.Lit
	for _, g := range enc.Groups() {
		if g.Sel == nil {
			t.Fatalf("group %s has no selector under Options.Groups", g.Name())
		}
		lits = append(lits, sat.PosLit(sys.BoolSolverVar(g.Sel)))
	}
	return lits
}

func TestGroupsOffLeavesNoSelectors(t *testing.T) {
	enc, err := Encode(twoBusSystem(), Options{Objective: MinimizeSumTRT, ObjectiveMedium: -1})
	if err != nil {
		t.Fatal(err)
	}
	if len(enc.Groups()) == 0 {
		t.Fatal("no constraint groups tracked")
	}
	for _, g := range enc.Groups() {
		if g.Sel != nil {
			t.Fatalf("group %s carries a selector with Groups off", g.Name())
		}
	}
}

func TestGroupsCoverExpectedFamilies(t *testing.T) {
	sys := twoBusSystem()
	sys.ECUs[0].MemCapacity = 64
	sys.Tasks[0].MemSize = 8
	// prod and filler together would overload p0, so its utilization row
	// is not vacuous.
	sys.Tasks[2].WCET[0] = 58
	enc, err := Encode(sys, Options{Objective: MinimizeSumTRT, ObjectiveMedium: -1, Groups: true})
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[GroupKind]bool{}
	for _, g := range enc.Groups() {
		kinds[g.Kind] = true
	}
	for _, want := range []GroupKind{GroupPlacement, GroupDeadline, GroupRouting, GroupMemory, GroupPriority, GroupUtilization} {
		if !kinds[want] {
			t.Fatalf("no %s group; have %v", want, enc.Groups())
		}
	}
}

// minCost descends to the optimum by iterative strengthening: solve under
// base, then repeatedly demand a strictly cheaper model until UNSAT.
func minCost(t *testing.T, sys *bv.System, enc *Encoding, base []sat.Lit) int64 {
	t.Helper()
	if st := sys.Solve(base...); st != sat.Sat {
		t.Fatalf("initial solve %v, want sat", st)
	}
	best := enc.CostOf(sys.Model())
	for {
		hi, err := sys.UpperBoundLit(enc.Cost, best-1)
		if err != nil {
			t.Fatal(err)
		}
		if st := sys.Solve(append([]sat.Lit{hi}, base...)...); st != sat.Sat {
			return best
		}
		best = enc.CostOf(sys.Model())
	}
}

// TestGroupedEquisatisfiable is the soundness contract of applySelectors:
// with every selector asserted, the guarded encoding accepts exactly the
// outcomes of the unguarded one — same satisfiability, same optimal cost.
func TestGroupedEquisatisfiable(t *testing.T) {
	sys := twoBusSystem()
	plainEnc, err := Encode(sys, Options{Objective: MinimizeSumTRT, ObjectiveMedium: -1})
	if err != nil {
		t.Fatal(err)
	}
	plainSys, err := bv.Compile(plainEnc.F)
	if err != nil {
		t.Fatal(err)
	}
	plainOpt := minCost(t, plainSys, plainEnc, nil)

	enc, err := Encode(sys, Options{Objective: MinimizeSumTRT, ObjectiveMedium: -1, Groups: true})
	if err != nil {
		t.Fatal(err)
	}
	compiled, err := bv.Compile(enc.F)
	if err != nil {
		t.Fatal(err)
	}
	sels := selLits(t, enc, compiled)
	groupedOpt := minCost(t, compiled, enc, sels)
	if groupedOpt != plainOpt {
		t.Fatalf("grouped optimum %d under all selectors, ungrouped optimum %d",
			groupedOpt, plainOpt)
	}
}

// TestRelaxedGroupsRestoreSatisfiability is the relaxation contract: an
// infeasible spec's guarded encoding is unsat with all selectors on, yet
// sat once the selectors are left free (every family waived), because the
// ungrouped definitional constraints alone cannot conflict.
func TestRelaxedGroupsRestoreSatisfiability(t *testing.T) {
	sys := twoBusSystem()
	// Overload: pin all three tasks to the left bus at ~full utilization;
	// three such tasks cannot share two ECUs.
	for _, task := range sys.Tasks {
		task.WCET = map[int]int64{0: task.Period - 1, 1: task.Period - 1}
		task.Deadline = task.Period
	}
	enc, err := Encode(sys, Options{Objective: MinimizeSumTRT, ObjectiveMedium: -1, Groups: true})
	if err != nil {
		t.Fatal(err)
	}
	compiled, err := bv.Compile(enc.F)
	if err != nil {
		t.Fatal(err)
	}
	sels := selLits(t, enc, compiled)
	if st := compiled.Solve(sels...); st != sat.Unsat {
		t.Fatalf("overloaded system %v under all selectors, want unsat", st)
	}
	if st := compiled.Solve(); st != sat.Sat {
		t.Fatalf("fully relaxed encoding %v, want sat", st)
	}
}
