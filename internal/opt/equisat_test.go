package opt

import (
	"fmt"
	"testing"

	"satalloc/internal/encode"
	"satalloc/internal/model"
	"satalloc/internal/workload"
)

// TestEquisatSpecsAcrossEncoders is the spec-level half of the equisatisfiability
// harness (the bv package holds the formula-level, exhaustive half):
// paper-shaped specs go through encode + Minimize and must report the
// status and optimal cost pinned here. The pins are the values on which
// the legacy unhashed encoder and both comparator families of the hashed
// one agreed before those variants were removed, which is what the name
// still refers to. Instances are kept small
// so the test stays fast under -race (`make equisat` runs it there).
func TestEquisatSpecsAcrossEncoders(t *testing.T) {
	specs := []struct {
		name string
		sys  *model.System
		obj  encode.Objective
		cost int64
	}{
		{"table1-ring", workload.Partition(workload.T43(), 8), encode.MinimizeTRT, 18},
		{"table1-can", workload.Partition(workload.T43CAN(), 8), encode.MinimizeBusUtilization, 33},
		{"table2-ring4", table2Spec(4), encode.MinimizeTRT, 10},
		{"tiny-ring", tinyRing(), encode.MinimizeTRT, 4},
	}
	for _, spec := range specs {
		t.Run(spec.name, func(t *testing.T) {
			enc, err := encode.Encode(spec.sys, encode.Options{Objective: spec.obj, ObjectiveMedium: -1})
			if err != nil {
				t.Fatalf("encode: %v", err)
			}
			res, err := Minimize(enc, Options{Incremental: true})
			if err != nil {
				t.Fatalf("minimize: %v", err)
			}
			t.Logf("status=%v cost=%d vars=%d literals=%d", res.Status, res.Cost, res.Vars, res.Literals)
			if res.Status != Optimal || res.Cost != spec.cost {
				t.Errorf("status=%v cost=%d, want optimal cost=%d", res.Status, res.Cost, spec.cost)
			}
		})
	}
}

// table2Spec builds the Table-2 architecture-scaling instance with n ring
// ECUs at the benchmark's scaled workload shape.
func table2Spec(n int) *model.System {
	o := workload.T43Options()
	o.Tasks = 8
	o.Chains = 2
	o.Restricted = 1
	o.SeparatedPairs = 1
	sys := workload.Populate(workload.RingArchitecture(n), o)
	sys.Name = fmt.Sprintf("table2-ring%d", n)
	return sys
}
