package core

import (
	"bytes"
	"strings"
	"testing"

	"satalloc/internal/model"
	"satalloc/internal/rta"
	"satalloc/internal/workload"
)

func smallSystem() *model.System {
	s := workload.RingArchitecture(3)
	o := workload.T43Options()
	o.Tasks = 8
	o.Chains = 2
	o.Restricted = 1
	o.SeparatedPairs = 1
	return workload.Populate(s, o)
}

func TestSolveSmall(t *testing.T) {
	sys := smallSystem()
	sol, err := Solve(sys, Config{Objective: MinimizeTRT})
	if err != nil {
		t.Fatal(err)
	}
	if !sol.Feasible {
		t.Fatal("expected feasible")
	}
	if sol.Analysis == nil || !sol.Analysis.Schedulable {
		t.Fatal("solution must carry a passing analysis")
	}
	if sol.Cost != sol.Allocation.RoundLength(sys.Media[0]) {
		t.Fatalf("cost %d != round length", sol.Cost)
	}
	if sol.BoolVars == 0 || sol.Literals == 0 || sol.SolveCalls == 0 {
		t.Fatal("stats must be populated")
	}
}

func TestSolveRespectsConfigDefaults(t *testing.T) {
	// ObjectiveMedium zero value must mean "pick the first suitable".
	sys := smallSystem()
	if _, err := Solve(sys, Config{}); err != nil {
		t.Fatal(err)
	}
}

func TestCheckFeasible(t *testing.T) {
	sys := smallSystem()
	ok, err := CheckFeasible(sys, Config{Objective: MinimizeTRT})
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("small system should be feasible")
	}
	// Make it impossible.
	for _, task := range sys.Tasks {
		for p := range task.WCET {
			task.WCET[p] = task.Period
		}
		task.Deadline = task.Period
	}
	ok, err = CheckFeasible(sys, Config{Objective: MinimizeTRT})
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("overloaded system should be infeasible")
	}
}

func TestExplain(t *testing.T) {
	sys := smallSystem()
	sol, err := Solve(sys, Config{Objective: MinimizeTRT})
	if err != nil {
		t.Fatal(err)
	}
	text := Explain(sys, sol)
	if !strings.Contains(text, "optimal cost") {
		t.Fatalf("explanation missing header: %s", text)
	}
	for _, task := range sys.Tasks {
		if !strings.Contains(text, task.Name) {
			t.Fatalf("explanation missing task %s", task.Name)
		}
	}
	if got := Explain(sys, &Solution{}); !strings.Contains(got, "no feasible") {
		t.Fatal("infeasible explanation wrong")
	}
}

func TestSpecRoundTrip(t *testing.T) {
	sys := workload.HierarchicalT43(workload.ArchitectureC())
	var buf bytes.Buffer
	if err := WriteSpec(&buf, sys); err != nil {
		t.Fatal(err)
	}
	back, err := ReadSpec(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Tasks) != len(sys.Tasks) || len(back.Media) != len(sys.Media) ||
		len(back.Messages) != len(sys.Messages) || len(back.ECUs) != len(sys.ECUs) {
		t.Fatal("round trip changed cardinalities")
	}
	for i := range sys.Tasks {
		a, b := sys.Tasks[i], back.Tasks[i]
		if a.Period != b.Period || a.Deadline != b.Deadline || len(a.WCET) != len(b.WCET) {
			t.Fatalf("task %d differs after round trip", i)
		}
		for p, c := range a.WCET {
			if b.WCET[p] != c {
				t.Fatalf("task %d WCET differs on ECU %d", i, p)
			}
		}
	}
	for i := range sys.Media {
		if sys.Media[i].Kind != back.Media[i].Kind {
			t.Fatal("medium kind lost")
		}
	}
}

func TestSpecPreservesMeta(t *testing.T) {
	sys := smallSystem()
	sys.Meta = map[string]string{
		"generator":        "workgen",
		"generatorVersion": workload.GeneratorVersion,
		"kind":             "ring",
		"seed":             "43",
	}
	var buf bytes.Buffer
	if err := WriteSpec(&buf, sys); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"meta"`) || !strings.Contains(buf.String(), `"seed": "43"`) {
		t.Fatalf("meta block missing from spec JSON:\n%s", buf.String())
	}
	back, err := ReadSpec(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Meta) != len(sys.Meta) {
		t.Fatalf("meta round trip lost keys: %v", back.Meta)
	}
	for k, v := range sys.Meta {
		if back.Meta[k] != v {
			t.Fatalf("meta[%q] = %q, want %q", k, back.Meta[k], v)
		}
	}
	// A spec with no meta must keep omitting the block.
	var plain bytes.Buffer
	if err := WriteSpec(&plain, smallSystem()); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(plain.String(), `"meta"`) {
		t.Fatal("meta block emitted for a system without metadata")
	}
}

func TestSpecRejectsUnknownKind(t *testing.T) {
	in := `{"name":"x","ecus":[{"id":0,"name":"a"},{"id":1,"name":"b"}],
	"media":[{"id":0,"name":"m","kind":"ethernet","ecus":[0,1],"timePerUnit":1}],
	"tasks":[{"id":0,"name":"t","period":10,"deadline":10,"wcet":{"0":1}}]}`
	if _, err := ReadSpec(strings.NewReader(in)); err == nil {
		t.Fatal("unknown medium kind accepted")
	}
}

func TestSpecValidatesSystem(t *testing.T) {
	in := `{"name":"x","ecus":[{"id":0,"name":"a"},{"id":1,"name":"b"}],
	"media":[{"id":0,"name":"m","kind":"can","ecus":[0,1],"timePerUnit":1}],
	"tasks":[{"id":0,"name":"t","period":0,"deadline":10,"wcet":{"0":1}}]}`
	if _, err := ReadSpec(strings.NewReader(in)); err == nil {
		t.Fatal("invalid system accepted")
	}
}

func TestAllocationJSONRoundTrip(t *testing.T) {
	sys := smallSystem()
	sol, err := Solve(sys, Config{Objective: MinimizeTRT})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteAllocation(&buf, sys, sol.Allocation, sol.Cost); err != nil {
		t.Fatal(err)
	}
	back, err := ReadAllocation(&buf, sys)
	if err != nil {
		t.Fatal(err)
	}
	for _, task := range sys.Tasks {
		if back.TaskECU[task.ID] != sol.Allocation.TaskECU[task.ID] {
			t.Fatalf("task %s placement lost", task.Name)
		}
		if back.TaskPrio[task.ID] != sol.Allocation.TaskPrio[task.ID] {
			t.Fatalf("task %s priority lost", task.Name)
		}
	}
	for _, m := range sys.Messages {
		if !back.Route[m.ID].Equal(sol.Allocation.Route[m.ID]) {
			t.Fatalf("message %s route lost", m.Name)
		}
		for _, k := range back.Route[m.ID] {
			key := [2]int{m.ID, k}
			if back.MsgLocalDeadline[key] != sol.Allocation.MsgLocalDeadline[key] {
				t.Fatalf("message %s local deadline lost on medium %d", m.Name, k)
			}
		}
	}
	for key, v := range sol.Allocation.SlotLen {
		if back.SlotLen[key] != v {
			t.Fatalf("slot %v lost", key)
		}
	}
	// The round-tripped allocation must still pass the analyzer.
	if !rta.Analyze(sys, back).Schedulable {
		t.Fatal("round-tripped allocation rejected by analyzer")
	}
}

func TestReadAllocationRejectsUnknownNames(t *testing.T) {
	sys := smallSystem()
	bad := `{"taskEcu":{"nosuch":0},"taskPriority":{}}`
	if _, err := ReadAllocation(strings.NewReader(bad), sys); err == nil {
		t.Fatal("unknown task name accepted")
	}
}

func TestReadAllocationDefaultsPriorities(t *testing.T) {
	sys := smallSystem()
	in := `{"taskEcu":{},"taskPriority":{}}`
	a, err := ReadAllocation(strings.NewReader(in), sys)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.TaskPrio) != len(sys.Tasks) {
		t.Fatal("missing priorities must default to deadline-monotonic")
	}
}
