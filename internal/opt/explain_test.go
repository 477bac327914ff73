package opt

import (
	"strings"
	"testing"

	"satalloc/internal/bv"
	"satalloc/internal/encode"
	"satalloc/internal/model"
	"satalloc/internal/sat"
)

// overloaded returns tinyRing with every task inflated to ~full
// utilization: three such tasks can never fit on two ECUs.
func overloaded() *model.System {
	sys := tinyRing()
	for _, task := range sys.Tasks {
		task.WCET[0] = task.Period - 1
		task.WCET[1] = task.Period - 1
		task.Deadline = task.Period
	}
	return sys
}

func TestProofCertifiesOptimalRun(t *testing.T) {
	for _, inc := range []bool{true, false} {
		sys := tinyRing()
		enc, err := encode.Encode(sys, encode.Options{Objective: encode.MinimizeTRT, ObjectiveMedium: -1})
		if err != nil {
			t.Fatal(err)
		}
		res, err := Minimize(enc, Options{Incremental: inc, Proof: true})
		if err != nil {
			t.Fatal(err)
		}
		if res.Status != Optimal {
			t.Fatalf("incremental=%v: status %v", inc, res.Status)
		}
		cert := res.Certificate
		if cert == nil {
			t.Fatalf("incremental=%v: no certificate", inc)
		}
		if cert.Steps == 0 {
			t.Fatalf("incremental=%v: empty certificate", inc)
		}
		// Every UNSAT window probe of the binary search must be certified.
		unsatIters := 0
		for _, it := range res.Iters {
			if it.Status == sat.Unsat {
				unsatIters++
			}
		}
		if cert.Probes != unsatIters {
			t.Fatalf("incremental=%v: %d probes certified, %d UNSAT iters",
				inc, cert.Probes, unsatIters)
		}
		wantLogs := 1
		if !inc {
			wantLogs = res.SolveCalls
		}
		if len(cert.Logs) != wantLogs {
			t.Fatalf("incremental=%v: %d logs, want %d", inc, len(cert.Logs), wantLogs)
		}
	}
}

func TestProofCertifiesInfeasibleRun(t *testing.T) {
	sys := overloaded()
	enc, err := encode.Encode(sys, encode.Options{Objective: encode.MinimizeTRT, ObjectiveMedium: -1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Minimize(enc, Options{Incremental: true, Proof: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Infeasible {
		t.Fatalf("status %v, want infeasible", res.Status)
	}
	cert := res.Certificate
	if cert == nil {
		t.Fatal("no certificate on infeasible run")
	}
	if cert.RootConflicts+cert.Probes == 0 {
		t.Fatal("certificate carries neither a root refutation nor a probe")
	}
}

func TestProofRejectsPortfolio(t *testing.T) {
	sys := tinyRing()
	enc, err := encode.Encode(sys, encode.Options{Objective: encode.MinimizeTRT, ObjectiveMedium: -1})
	if err != nil {
		t.Fatal(err)
	}
	_, err = Minimize(enc, Options{Proof: true, Workers: 2})
	if err == nil {
		t.Fatal("Proof with Workers=2 accepted")
	}
	if !strings.Contains(err.Error(), "sequential") {
		t.Fatalf("error does not explain the sequential-only contract: %v", err)
	}
}

func TestExplainFeasibleSpecReportsFeasible(t *testing.T) {
	rep, err := ExplainInfeasible(tinyRing(),
		encode.Options{Objective: encode.MinimizeTRT, ObjectiveMedium: -1}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Feasible {
		t.Fatalf("feasible spec explained as infeasible: %v", rep)
	}
	if len(rep.Groups) != 0 {
		t.Fatalf("feasible report carries a core: %v", rep.Names())
	}
}

func TestExplainTrivialDeadlineCore(t *testing.T) {
	// sense cannot meet a deadline of 3 with WCET 6 on every ECU — the
	// encoder's trivial-infeasible site, labelled deadline(sense). The
	// minimal core must name exactly that family.
	sys := tinyRing()
	sys.Tasks[0].Deadline = 3
	rep, err := ExplainInfeasible(sys,
		encode.Options{Objective: encode.MinimizeTRT, ObjectiveMedium: -1}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Feasible {
		t.Fatal("infeasible spec explained as feasible")
	}
	if !rep.Minimal {
		t.Fatal("minimization did not complete")
	}
	if got := rep.String(); got != "infeasible: deadline(sense)" {
		t.Fatalf("core %q, want exactly deadline(sense)", got)
	}
}

func TestExplainOverloadCoreIsMinimal(t *testing.T) {
	sys := overloaded()
	rep, err := ExplainInfeasible(sys,
		encode.Options{Objective: encode.MinimizeTRT, ObjectiveMedium: -1}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Feasible || !rep.Minimal {
		t.Fatalf("feasible=%v minimal=%v", rep.Feasible, rep.Minimal)
	}
	if len(rep.Groups) == 0 {
		t.Fatal("empty core for an overloaded system")
	}
	// Overload is a placement/deadline conflict; no other family should
	// survive minimization.
	for _, g := range rep.Groups {
		if g.Kind != encode.GroupPlacement && g.Kind != encode.GroupDeadline {
			t.Fatalf("unexpected family %s in core %v", g.Name(), rep.Names())
		}
	}
	verifyMinimalCore(t, sys, rep)
}

func TestExplainPinnedOverloadCore(t *testing.T) {
	// Placement restrictions pin all three tasks to p0, where they need
	// 14/20 + 6/40 + 8/40 = 105 % of the CPU; each alone meets its
	// deadline. The core must name the overloaded ECU's row or the
	// deadline families of the tasks on it.
	sys := tinyRing()
	sys.Tasks[2].WCET[0] = 14
	for _, task := range sys.Tasks {
		task.Allowed = []int{0}
	}
	rep, err := ExplainInfeasible(sys,
		encode.Options{Objective: encode.MinimizeTRT, ObjectiveMedium: -1}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Feasible || !rep.Minimal {
		t.Fatalf("feasible=%v minimal=%v", rep.Feasible, rep.Minimal)
	}
	named := false
	for _, g := range rep.Groups {
		switch {
		case g.Kind == encode.GroupUtilization && g.Entity == "ecu0", g.Kind == encode.GroupDeadline:
			named = true
		case g.Kind == encode.GroupPlacement:
		default:
			t.Fatalf("unexpected family %s in core %v", g.Name(), rep.Names())
		}
	}
	if !named {
		t.Fatalf("core %v names neither utilization(ecu0) nor a deadline", rep.Names())
	}
	verifyMinimalCore(t, sys, rep)
}

func TestExplainSeparationCore(t *testing.T) {
	// Three mutually separated tasks on two ECUs: a pigeonhole over the
	// separation and placement families.
	sys := tinyRing()
	sys.Tasks[0].Separation = []int{1, 2}
	sys.Tasks[1].Separation = []int{0, 2}
	sys.Tasks[2].Separation = []int{0, 1}
	rep, err := ExplainInfeasible(sys,
		encode.Options{Objective: encode.MinimizeTRT, ObjectiveMedium: -1}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Feasible || !rep.Minimal {
		t.Fatalf("feasible=%v minimal=%v", rep.Feasible, rep.Minimal)
	}
	for _, g := range rep.Groups {
		if g.Kind != encode.GroupPlacement && g.Kind != encode.GroupSeparation {
			t.Fatalf("unexpected family %s in core %v", g.Name(), rep.Names())
		}
	}
	verifyMinimalCore(t, sys, rep)
}

func TestExplainWithProofCertifiesProbes(t *testing.T) {
	sys := overloaded()
	rep, err := ExplainInfeasible(sys,
		encode.Options{Objective: encode.MinimizeTRT, ObjectiveMedium: -1},
		Options{Proof: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Certificate == nil {
		t.Fatal("no certificate with Proof set")
	}
	if rep.Certificate.Probes == 0 {
		t.Fatal("no UNSAT probe certified during extraction")
	}
}

// verifyMinimalCore independently re-checks a Minimal core report with a
// fresh solver: the reported set must be unsatisfiable, and dropping any
// single family must make the rest satisfiable.
func verifyMinimalCore(t *testing.T, msys *model.System, rep *CoreReport) {
	t.Helper()
	enc, err := encode.Encode(msys, encode.Options{
		Objective: encode.MinimizeTRT, ObjectiveMedium: -1, Groups: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	sys, err := bv.Compile(enc.F)
	if err != nil {
		t.Fatal(err)
	}
	// Match reported groups to this encoding's selectors by name — group
	// declaration order is deterministic, but names are the contract.
	byName := map[string]sat.Lit{}
	for _, g := range enc.Groups() {
		byName[g.Name()] = sat.PosLit(sys.BoolSolverVar(g.Sel))
	}
	lits := make([]sat.Lit, 0, len(rep.Groups))
	for _, g := range rep.Groups {
		l, ok := byName[g.Name()]
		if !ok {
			t.Fatalf("core group %s not in fresh encoding", g.Name())
		}
		lits = append(lits, l)
	}
	if st := sys.Solve(lits...); st != sat.Unsat {
		t.Fatalf("reported core is %v, want unsat", st)
	}
	for i := range lits {
		sub := make([]sat.Lit, 0, len(lits)-1)
		sub = append(sub, lits[:i]...)
		sub = append(sub, lits[i+1:]...)
		if st := sys.Solve(sub...); st != sat.Sat {
			t.Fatalf("core minus %s is %v, want sat (core not minimal)",
				rep.Groups[i].Name(), st)
		}
	}
}
