package core

import (
	"math/rand"
	"testing"

	"satalloc/internal/model"
	"satalloc/internal/opt"
	"satalloc/internal/workload"
)

// permuteTaskIDs relabels the tasks by a permutation of their own IDs —
// every reference (separations, message endpoints) follows — and shuffles
// their order in the task list.
func permuteTaskIDs(sys *model.System, rng *rand.Rand) {
	to := map[int]int{}
	perm := rng.Perm(len(sys.Tasks))
	for i, t := range sys.Tasks {
		to[t.ID] = sys.Tasks[perm[i]].ID
	}
	for _, t := range sys.Tasks {
		t.ID = to[t.ID]
		for i, id := range t.Separation {
			t.Separation[i] = to[id]
		}
	}
	for _, m := range sys.Messages {
		m.From, m.To = to[m.From], to[m.To]
	}
	rng.Shuffle(len(sys.Tasks), func(i, j int) { sys.Tasks[i], sys.Tasks[j] = sys.Tasks[j], sys.Tasks[i] })
}

// permuteECUIDs relabels the ECUs by a permutation of their own IDs —
// every reference (medium membership, WCET tables, allowed sets) follows
// — and shuffles their order in the ECU list.
func permuteECUIDs(sys *model.System, rng *rand.Rand) {
	to := map[int]int{}
	perm := rng.Perm(len(sys.ECUs))
	for i, e := range sys.ECUs {
		to[e.ID] = sys.ECUs[perm[i]].ID
	}
	for _, e := range sys.ECUs {
		e.ID = to[e.ID]
	}
	for _, m := range sys.Media {
		for i, id := range m.ECUs {
			m.ECUs[i] = to[id]
		}
	}
	for _, t := range sys.Tasks {
		wcet := map[int]int64{}
		for id, c := range t.WCET {
			wcet[to[id]] = c
		}
		t.WCET = wcet
		for i, id := range t.Allowed {
			t.Allowed[i] = to[id]
		}
	}
	rng.Shuffle(len(sys.ECUs), func(i, j int) { sys.ECUs[i], sys.ECUs[j] = sys.ECUs[j], sys.ECUs[i] })
}

// relaxDeadline raises one task's deadline to a random value up to its
// period, reporting false when every deadline already equals its period.
func relaxDeadline(sys *model.System, rng *rand.Rand) bool {
	var slack []*model.Task
	for _, t := range sys.Tasks {
		if t.Deadline < t.Period {
			slack = append(slack, t)
		}
	}
	if len(slack) == 0 {
		return false
	}
	t := slack[rng.Intn(len(slack))]
	t.Deadline += 1 + rng.Int63n(t.Period-t.Deadline)
	return true
}

// TestMetamorphicOptimum checks relations between the optima of related
// generated specs, with no oracle: relabeling the tasks or the ECUs
// leaves the verdict and the optimal cost unchanged, and relaxing one
// task's deadline never raises the optimum (nor turns a feasible spec
// infeasible). The per-ECU utilization sweeps 40–90 %, lower than the
// exhaustive check's, so that most specs are feasible and the deadline
// relation has an optimum to compare. Each spec is regenerated from its
// seed before each transformation, so the transformations never compound.
func TestMetamorphicOptimum(t *testing.T) {
	solve := func(sys *model.System) *Solution {
		t.Helper()
		if err := sys.Validate(); err != nil {
			t.Fatalf("%s: transformed spec invalid: %v", sys.Name, err)
		}
		sol, err := Solve(sys, Config{Objective: objectiveFor(sys), Workers: 1})
		if err != nil {
			t.Fatalf("%s: %v", sys.Name, err)
		}
		if sol.Status != opt.Optimal && sol.Status != opt.Infeasible {
			t.Fatalf("%s: status %v", sys.Name, sol.Status)
		}
		return sol
	}
	feasible, relaxed, lowered := 0, 0, 0
	for seed := int64(1); seed <= 48; seed++ {
		util := 40 + int(seed*50/48)
		rng := rand.New(rand.NewSource(seed))
		base := solve(workload.Tiny(seed, util))

		for _, relabel := range []struct {
			name string
			fn   func(*model.System, *rand.Rand)
		}{{"task IDs", permuteTaskIDs}, {"ECU IDs", permuteECUIDs}} {
			sys := workload.Tiny(seed, util)
			relabel.fn(sys, rng)
			got := solve(sys)
			if got.Status != base.Status || got.Cost != base.Cost {
				t.Errorf("%s with permuted %s: %v cost %d, original %v cost %d",
					sys.Name, relabel.name, got.Status, got.Cost, base.Status, base.Cost)
			}
		}

		if base.Status != opt.Optimal {
			continue
		}
		feasible++
		sys := workload.Tiny(seed, util)
		if !relaxDeadline(sys, rng) {
			continue
		}
		relaxed++
		got := solve(sys)
		if got.Status != opt.Optimal || got.Cost > base.Cost {
			t.Errorf("%s with a relaxed deadline: %v cost %d, original optimum %d",
				sys.Name, got.Status, got.Cost, base.Cost)
		}
		if got.Cost < base.Cost {
			lowered++
		}
	}
	t.Logf("48 specs, %d feasible; %d relaxed, %d of them to a lower optimum", feasible, relaxed, lowered)
}
