package core

import (
	"testing"

	"satalloc/internal/workload"
)

// TestSequentialSolveIsRepeatable pins the encoder's determinism: a spec
// whose tasks share deadlines gets its priority-transitivity clauses in a
// fixed order, so repeated in-process sequential solves search exactly
// alike. A map-ordered encoding made the counts differ from call to call.
func TestSequentialSolveIsRepeatable(t *testing.T) {
	// Two deadline groups of three or more tasks; the two orders in which
	// a map range can visit them lead to different searches (578 and 457
	// conflicts).
	o := workload.T43Options()
	o.Seed = 3
	o.Tasks = 10
	o.Chains = 3
	o.UtilizationPerECUPercent = 65
	o.Restricted = 2
	o.SeparatedPairs = 2
	sys := workload.Populate(workload.RingArchitecture(3), o)

	perDeadline := map[int64]int{}
	most := 0
	for _, task := range sys.Tasks {
		perDeadline[task.Deadline]++
		most = max(most, perDeadline[task.Deadline])
	}
	if most < 3 {
		t.Fatalf("spec has at most %d tasks per deadline; the check needs 3 or more", most)
	}

	var conflicts, decisions int64
	for i := 0; i < 5; i++ {
		sol, err := Solve(sys, Config{Objective: MinimizeTRT, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			conflicts, decisions = sol.Conflicts, sol.SolverStats.Decisions
			if conflicts == 0 {
				t.Fatal("solve took no conflicts; pick a spec that needs search")
			}
			continue
		}
		if sol.Conflicts != conflicts || sol.SolverStats.Decisions != decisions {
			t.Fatalf("solve %d: %d conflicts, %d decisions; first solve: %d, %d",
				i+1, sol.Conflicts, sol.SolverStats.Decisions, conflicts, decisions)
		}
	}
}
