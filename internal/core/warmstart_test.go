package core

import (
	"bufio"
	"bytes"
	"encoding/json"
	"testing"

	"satalloc/internal/baseline"
	"satalloc/internal/encode"
	"satalloc/internal/flightrec"
	"satalloc/internal/metrics"
	"satalloc/internal/model"
	"satalloc/internal/obs"
	"satalloc/internal/workload"
)

// greedyRing is a 4-ECU ring on which the greedy first fit finds an
// allocation dearer than the optimum, so a warm-started search still
// has a window to close.
func greedyRing() *model.System {
	o := workload.T43Options()
	o.Tasks = 8
	o.Chains = 2
	o.Restricted = 1
	o.SeparatedPairs = 1
	return workload.Populate(workload.RingArchitecture(4), o)
}

// TestCheckFeasibleStopsAtFirstModel checks CheckFeasible's contract: a
// feasible spec is answered by its first SOLVE call, with no binary search
// after the first model — searched cold (no greedy allocation) or warm —
// and an infeasible spec still answers false.
func TestCheckFeasibleStopsAtFirstModel(t *testing.T) {
	for _, sys := range []*model.System{smallSystem(), greedyRing()} {
		m := metrics.NewSolverMetrics(metrics.New())
		ok, err := CheckFeasible(sys, Config{Objective: MinimizeTRT, Metrics: m})
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatalf("%s should be feasible", sys.Name)
		}
		if got := m.SolveCalls.Value(); got != 1 {
			t.Fatalf("%s took %d SOLVE calls, want 1", sys.Name, got)
		}
	}

	sys := smallSystem()

	for _, task := range sys.Tasks {
		for p := range task.WCET {
			task.WCET[p] = task.Period
		}
		task.Deadline = task.Period
	}
	if ok, err := CheckFeasible(sys, Config{Objective: MinimizeTRT}); err != nil || ok {
		t.Fatalf("overloaded system: feasible=%v err=%v, want infeasible", ok, err)
	}
}

// TestSolveWarmStartsFromGreedy checks the pipeline's warm start: the
// first SOLVE call is bounded by the greedy allocation's cost, the trace
// carries one WarmStart span with the greedy verdict, its cost and the
// hinted-literal count, and the flight recorder one opt.warmstart event.
func TestSolveWarmStartsFromGreedy(t *testing.T) {
	sys := greedyRing()
	greedy := baseline.GreedyFirstFit(sys, encode.Options{Objective: MinimizeTRT, ObjectiveMedium: -1})
	if !greedy.Feasible {
		t.Fatal("greedy found no allocation for the 4-ECU ring")
	}
	var buf bytes.Buffer
	tr := obs.NewTracer(&buf)
	root := tr.Start("solve")
	rec := flightrec.New(0)
	sol, err := Solve(sys, Config{Objective: MinimizeTRT, Trace: root, FlightRecorder: rec})
	if err != nil {
		t.Fatal(err)
	}
	root.End()
	if sol.Status.String() != "optimal" || sol.Cost > greedy.Cost {
		t.Fatalf("%v cost %d, want an optimum no dearer than the greedy %d", sol.Status, sol.Cost, greedy.Cost)
	}
	if first := sol.Iters[0]; first.Lo != -1 || first.Hi != greedy.Cost {
		t.Fatalf("first probe window [%d,%d], want [-1,%d]", first.Lo, first.Hi, greedy.Cost)
	}

	var spans []map[string]any
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var line struct {
			Span  string         `json:"span"`
			Attrs map[string]any `json:"attrs"`
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatal(err)
		}
		if line.Span == "WarmStart" {
			spans = append(spans, line.Attrs)
		}
	}
	if len(spans) != 1 {
		t.Fatalf("%d WarmStart spans, want 1", len(spans))
	}
	a := spans[0]
	if a["feasible"] != true || a["cost"] != float64(greedy.Cost) || a["hinted"].(float64) <= 0 {
		t.Fatalf("WarmStart attrs %v, want feasible, cost %d and a positive hinted count", a, greedy.Cost)
	}
	events := 0
	for _, e := range rec.Snapshot() {
		if e.Kind == "opt.warmstart" {
			events++
		}
	}
	if events != 1 {
		t.Fatalf("%d opt.warmstart events, want 1", events)
	}
}
