package bv_test

import (
	"testing"

	"satalloc/internal/bv"
	"satalloc/internal/encode"
	"satalloc/internal/ir"
	"satalloc/internal/sat"
	"satalloc/internal/workload"
)

// BenchmarkCompileRing measures solver intake on the job service's typical
// formula: loadgen's default ring (2 ECUs, 4 tasks, generator seed 1),
// encoded for minimum ΣTRT and rewritten to triplets once, then
// bit-blasted into a fresh solver on every iteration. Its allocations are
// dominated by NewVar, AddClause and AddPB.
func BenchmarkCompileRing(b *testing.B) {
	o := workload.T43Options()
	o.Seed = 1
	o.Tasks = 4
	o.Chains = o.Tasks / 4
	o.Restricted = o.Tasks / 8
	o.SeparatedPairs = o.Tasks / 16
	o.ForcedRemoteChains = o.Chains / 2
	sys := workload.Populate(workload.RingArchitecture(2), o)
	enc, err := encode.Encode(sys, encode.Options{Objective: encode.MinimizeTRT, ObjectiveMedium: -1})
	if err != nil {
		b.Fatal(err)
	}
	tr := ir.ToTriplets(enc.F)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := sat.New()
		if _, err := bv.BlastWith(s, tr, bv.Options{}); err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(s.NumVariables()), "vars")
			b.ReportMetric(float64(s.Stats.NumLiterals), "literals")
		}
	}
}
