package main

import (
	_ "embed"
	"encoding/json"
	"fmt"

	"satalloc/internal/baseline"
	"satalloc/internal/core"
	"satalloc/internal/encode"
	"satalloc/internal/model"
	"satalloc/internal/rta"
	"satalloc/internal/sim"
)

// verdict is a solve's answer as the gate compares it.
type verdict struct {
	Status string `json:"status"`
	Cost   int64  `json:"cost"`
}

//go:embed expected.json
var expectedJSON []byte

// expectedFile is bench/expected.json: the verdict of every batch instance,
// written by -record from proof-checked solves.
type expectedFile struct {
	Method    string             `json:"method"`
	Instances map[string]verdict `json:"instances"`
}

func loadExpected() (map[string]verdict, error) {
	var f expectedFile
	if err := json.Unmarshal(expectedJSON, &f); err != nil {
		return nil, fmt.Errorf("expected.json: %w", err)
	}
	return f.Instances, nil
}

// checkVerdict compares got with the recorded verdict of an instance.
func checkVerdict(name string, got verdict, expected map[string]verdict) error {
	want, ok := expected[name]
	if !ok {
		return fmt.Errorf("%s: no recorded verdict (rerun -record)", name)
	}
	if got.Status != want.Status || (got.Status == "optimal" && got.Cost != want.Cost) {
		return fmt.Errorf("%s: got %s cost %d, recorded %s cost %d", name, got.Status, got.Cost, want.Status, want.Cost)
	}
	return nil
}

// checkAllocation is the independent check of a feasible verdict: the
// response-time analysis must find the allocation schedulable, the
// objective recomputed from the allocation must equal the claimed cost,
// and the discrete-event simulator must observe no task response and no
// message journey later than the analysed bound.
func checkAllocation(sys *model.System, obj core.Objective, a *model.Allocation, cost int64) error {
	res := rta.Analyze(sys, a)
	if !res.Schedulable {
		return fmt.Errorf("allocation not schedulable: %v", res.Violations)
	}
	if got := baseline.Objective(sys, a, encode.Options{Objective: obj, ObjectiveMedium: -1}); got != cost {
		return fmt.Errorf("allocation costs %d, verdict claims %d", got, cost)
	}
	horizon := simHorizon(sys)
	for _, e := range sys.ECUs {
		for id, o := range sim.SimulateECU(sys, a, e.ID, horizon) {
			if bound := res.TaskResponse[id] + sys.TaskByID(id).Jitter; o.MaxResponse > bound {
				return fmt.Errorf("task %d observed response %d > bound %d", id, o.MaxResponse, bound)
			}
		}
	}
	for id, o := range sim.SimulateSystem(sys, a, horizon) {
		if len(a.Route[id]) == 0 {
			continue
		}
		if bound := sim.EndToEndBound(sys, a, id); o.MaxLatency > bound {
			return fmt.Errorf("message %d observed end-to-end %d > bound %d", id, o.MaxLatency, bound)
		}
	}
	return nil
}

// simHorizon covers two hyperperiods of the task set, capped so a task set
// with coprime periods cannot make the check unbounded.
func simHorizon(sys *model.System) int64 {
	const limit = 20000
	h := int64(1)
	for _, t := range sys.Tasks {
		g, b := h, t.Period
		for b != 0 {
			g, b = b, g%b
		}
		if h = h / g * t.Period; h > limit {
			return limit
		}
	}
	if 2*h > limit {
		return limit
	}
	return 2 * h
}

// checkAgainstExhaustive is the service workloads' reference: the
// brute-force oracle over placements, routes and slot vectors. It fixes
// task priorities and local message deadlines rather than searching them,
// so its optimum bounds the true optimum from above: a SAT optimum below
// it is accepted when checkAllocation confirms the allocation, and every
// other disagreement is a wrong verdict.
func checkAgainstExhaustive(sys *model.System, got verdict) error {
	ex := baseline.Exhaustive(sys, encode.Options{Objective: encode.MinimizeTRT, ObjectiveMedium: -1}, 0)
	switch {
	case got.Status == "infeasible" && ex.Feasible:
		return fmt.Errorf("verdict infeasible, exhaustive search found cost %d", ex.Cost)
	case got.Status == "optimal" && ex.Feasible && got.Cost > ex.Cost:
		return fmt.Errorf("verdict cost %d, exhaustive search found %d", got.Cost, ex.Cost)
	case got.Status != "optimal" && got.Status != "infeasible":
		return fmt.Errorf("verdict %q is not exact", got.Status)
	}
	return nil
}
