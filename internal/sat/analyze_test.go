package sat

import "testing"

// TestConflictAnalysisAllocations guards the learning path: once a solver
// has run long enough for its conflict-analysis scratch buffers to reach
// their working size, a conflict — analysis, minimization, LBD, recording
// and backjump — allocates only when the solver's own storage grows (the
// clause arena, the learnt list, a watch list), which averages far below
// one allocation per conflict.
func TestConflictAnalysisAllocations(t *testing.T) {
	s := php(9)
	s.MaxConflicts = 3000
	if st := s.Solve(); st != Unknown {
		t.Fatalf("warm-up solve returned %v, want Unknown under its budget", st)
	}
	s.MaxConflicts = 200
	before := s.Stats.Conflicts
	perRun := testing.AllocsPerRun(10, func() {
		if st := s.Solve(); st != Unknown {
			t.Fatalf("measured solve returned %v, want Unknown under its budget", st)
		}
	})
	// AllocsPerRun makes one extra warm-up call beyond its 10 runs.
	conflicts := float64(s.Stats.Conflicts-before) / 11
	if perConflict := perRun / conflicts; perConflict >= 0.1 {
		t.Fatalf("%.3f allocations per conflict (%.0f per %.0f-conflict solve), want < 0.1",
			perConflict, perRun, conflicts)
	}
}
