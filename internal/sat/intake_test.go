package sat

import (
	"math/rand"
	"testing"
)

// TestIntakeAllocations guards the intake path: on a warmed-up solver,
// adding 3-literal clauses and small PB constraints over existing
// variables allocates only when the solver's own storage grows, which
// averages well under one allocation per call.
func TestIntakeAllocations(t *testing.T) {
	const nvars = 200
	s := New()
	for i := 0; i < nvars; i++ {
		s.NewVar()
	}
	rng := rand.New(rand.NewSource(7))
	// Every constraint spans distinct variables and forces nothing at the
	// root, so the solver stays satisfiable and unassigned throughout and
	// each call reaches storage.
	lit := func(v int) Lit { return MkLit(Var(1+v%nvars), rng.Intn(2) == 0) }
	var terms [4]PBTerm
	add := func() {
		v := rng.Intn(nvars)
		if err := s.AddClause(lit(v), lit(v+1), lit(v+2)); err != nil {
			t.Fatal(err)
		}
		// At most two of four: Σ ¬x_i ≥ 2.
		v = rng.Intn(nvars)
		for i := range terms {
			terms[i] = PBTerm{Coef: 1, Lit: lit(v + i)}
		}
		if err := s.AddPB(terms[:], 2); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2000; i++ {
		add()
	}
	perRun := testing.AllocsPerRun(1000, add)
	if perCall := perRun / 2; perCall >= 1 {
		t.Fatalf("intake averaged %.2f allocations per call, want < 1", perCall)
	}
	if !s.Okay() || len(s.trail) != 0 || s.pb.count() < 3000 {
		t.Fatalf("intake went off the storage path: ok=%v, %d root facts, %d PB constraints",
			s.Okay(), len(s.trail), s.pb.count())
	}
}
