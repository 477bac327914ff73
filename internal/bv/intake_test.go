package bv_test

import (
	"runtime"
	"testing"

	"satalloc/internal/bv"
	"satalloc/internal/encode"
	"satalloc/internal/ir"
	"satalloc/internal/sat"
	"satalloc/internal/workload"
)

// table1Ring returns the triplet form of Table 1's token-ring instance
// (the T43 workload partitioned to 14 tasks, minimum TRT).
func table1Ring(t *testing.T) *ir.Triplets {
	t.Helper()
	sys := workload.Partition(workload.T43(), 14)
	enc, err := encode.Encode(sys, encode.Options{Objective: encode.MinimizeTRT, ObjectiveMedium: -1})
	if err != nil {
		t.Fatal(err)
	}
	return ir.ToTriplets(enc.F)
}

// TestTable1RingEncodingSize pins the size of Table 1's token ring at
// every intake layer: the triplet tables (whose structural dedup keys
// decide how many definitions survive), the linear rows, and the
// bit-blasted formula the solver ends up holding. The two utilization
// rows (8 terms each) add no variable: their 16 literals are their whole
// cost.
func TestTable1RingEncodingSize(t *testing.T) {
	tr := table1Ring(t)
	got := [6]int{len(tr.Ints), len(tr.BoolNames), len(tr.IntDefs), len(tr.CmpDefs), len(tr.Gates), len(tr.Linear)}
	if want := [6]int{1033, 3843, 632, 921, 2754, 2}; got != want {
		t.Errorf("triplets (ints, bools, int defs, cmp defs, gates, linear rows) = %v, want %v", got, want)
	}
	s := sat.New()
	if _, err := bv.BlastWith(s, tr, bv.Options{}); err != nil {
		t.Fatal(err)
	}
	if s.NumVariables() != 22833 || s.Stats.NumLiterals != 192276 {
		t.Errorf("blast = %d vars, %d literals; want 22833, 192276", s.NumVariables(), s.Stats.NumLiterals)
	}
}

// TestTable1CANEncodingSize pins the bit-blasted size of Table 1's CAN
// instance (the T43 workload on a CAN bus, partitioned to 12 tasks,
// minimum bus utilization), the second spec of the paper's Table 1.
func TestTable1CANEncodingSize(t *testing.T) {
	sys := workload.Partition(workload.T43CAN(), 12)
	enc, err := encode.Encode(sys, encode.Options{Objective: encode.MinimizeBusUtilization, ObjectiveMedium: -1})
	if err != nil {
		t.Fatal(err)
	}
	s := sat.New()
	if _, err := bv.BlastWith(s, ir.ToTriplets(enc.F), bv.Options{}); err != nil {
		t.Fatal(err)
	}
	if s.NumVariables() != 12640 || s.Stats.NumLiterals != 101805 {
		t.Errorf("blast = %d vars, %d literals; want 12640, 101805", s.NumVariables(), s.Stats.NumLiterals)
	}
}

// TestBlastAllocationBudget bounds the bytes one bit-blast of Table 1's
// token ring allocates. The count is a property of the intake path, not
// of host speed: recording the circuit in a flat batch and loading it at
// its final size keeps it at about 25 MB, where growing every solver
// slice one call at a time took 44 MB.
func TestBlastAllocationBudget(t *testing.T) {
	tr := table1Ring(t)
	const budget = 32 << 20
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	s := sat.New()
	if _, err := bv.BlastWith(s, tr, bv.Options{}); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("BlastWith allocated %.1f MB", float64(got)/(1<<20))
	if got > budget {
		t.Fatalf("BlastWith allocated %.1f MB, budget %.0f MB", float64(got)/(1<<20), float64(budget)/(1<<20))
	}
}
