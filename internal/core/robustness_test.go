package core

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"satalloc/internal/faultinject"
	"satalloc/internal/opt"
)

// These tests exercise the robustness layer: panic containment with repro
// bundles and graceful degradation under cancellation. The faultinject
// registry is global, so none of them may run in parallel.

func TestPanicContainmentWritesReproBundle(t *testing.T) {
	defer faultinject.Set(faultinject.PanicAt(faultinject.SiteSatSolve, 1, "injected solver panic"))()
	dir := t.TempDir()
	sys := smallSystem()
	_, err := Solve(sys, Config{Objective: MinimizeTRT, DiagnosticsDir: dir})
	if err == nil {
		t.Fatal("injected panic must surface as an error")
	}
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("error is %T (%v), want *PanicError", err, err)
	}
	if !strings.Contains(pe.Error(), "injected solver panic") {
		t.Fatalf("panic value lost: %v", pe)
	}
	if len(pe.Stack) == 0 {
		t.Fatal("stack trace missing")
	}
	if pe.BundleErr != nil {
		t.Fatalf("bundle write failed: %v", pe.BundleErr)
	}
	if pe.BundleDir == "" || !strings.HasPrefix(pe.BundleDir, dir) {
		t.Fatalf("bundle dir %q not under %q", pe.BundleDir, dir)
	}
	// The bundle must reproduce the failing run: the spec, the formula
	// that was being solved, the solver counters, and the panic itself.
	for _, name := range []string{"panic.txt", "spec.json", "stats.json"} {
		if _, err := os.Stat(filepath.Join(pe.BundleDir, name)); err != nil {
			t.Errorf("bundle missing %s: %v", name, err)
		}
	}
	cnf, cnfErr := os.Stat(filepath.Join(pe.BundleDir, "formula.cnf"))
	opb, opbErr := os.Stat(filepath.Join(pe.BundleDir, "formula.opb"))
	if cnfErr != nil && opbErr != nil {
		t.Error("bundle holds neither formula.cnf nor formula.opb")
	}
	if cnfErr == nil && cnf.Size() == 0 || opbErr == nil && opb.Size() == 0 {
		t.Error("formula dump is empty")
	}
	// The bundled spec must round-trip into a valid system.
	f, err := os.Open(filepath.Join(pe.BundleDir, "spec.json"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	back, err := ReadSpec(f)
	if err != nil {
		t.Fatalf("bundled spec unreadable: %v", err)
	}
	if len(back.Tasks) != len(sys.Tasks) {
		t.Fatalf("bundled spec has %d tasks, want %d", len(back.Tasks), len(sys.Tasks))
	}
}

func TestPanicAfterInjectionCountSolvesNormally(t *testing.T) {
	// The hook only fires on the n-th visit; a later-scheduled panic that
	// the search never reaches must leave the solve untouched.
	defer faultinject.Set(faultinject.PanicAt(faultinject.SiteSatSolve, 1_000_000, "unreached"))()
	sol, err := Solve(smallSystem(), Config{Objective: MinimizeTRT})
	if err != nil {
		t.Fatal(err)
	}
	if !sol.Feasible || sol.Status != opt.Optimal {
		t.Fatalf("solve degraded under an idle hook: %+v", sol.Status)
	}
}

func TestSolveContextCancelledDegrades(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sol, err := SolveContext(ctx, smallSystem(), Config{Objective: MinimizeTRT})
	if err != nil {
		t.Fatal(err)
	}
	if !sol.Aborted {
		t.Fatalf("cancelled solve must report interruption, got %+v", sol.Status)
	}
	switch sol.Status {
	case opt.Aborted:
		if sol.Feasible || sol.Allocation != nil {
			t.Fatal("aborted-before-model must not carry an allocation")
		}
	case opt.Feasible:
		if !sol.Feasible || sol.Allocation == nil || sol.LowerBound > sol.Cost {
			t.Fatalf("degraded result incoherent: %+v", sol)
		}
	default:
		t.Fatalf("status %v after cancellation", sol.Status)
	}
}

func TestConfigTimeoutDegrades(t *testing.T) {
	// A 1ns budget expires before the first restart boundary; the solve
	// must come back promptly on a degraded rung, never hang or error.
	sol, err := Solve(smallSystem(), Config{Objective: MinimizeTRT, Timeout: 1})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != opt.Aborted && sol.Status != opt.Feasible {
		t.Fatalf("status %v under a 1ns timeout", sol.Status)
	}
	if !sol.Aborted {
		t.Fatal("timed-out solve must be marked interrupted")
	}
}

func TestExplainDegradedOutcomes(t *testing.T) {
	sys := smallSystem()
	if got := Explain(sys, &Solution{Status: opt.Aborted}); !strings.Contains(got, "budget exhausted") {
		t.Fatalf("aborted explanation wrong: %s", got)
	}
	sol, err := Solve(sys, Config{Objective: MinimizeTRT})
	if err != nil {
		t.Fatal(err)
	}
	sol.Status = opt.Feasible
	sol.LowerBound = sol.Cost - 1
	if got := Explain(sys, sol); !strings.Contains(got, "lower bound") {
		t.Fatalf("degraded explanation missing the gap: %s", got)
	}
}
