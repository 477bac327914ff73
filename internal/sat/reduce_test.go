package sat

import "testing"

// TestParallelReduceDBKeepsSharedReasonClauses is the regression guard for
// learnt-DB reduction under heavy clause sharing: imported clauses become
// propagation reasons like locally learnt ones, and reduceDB must never
// drop a clause currently justifying a trail literal — conflict analysis
// would chase a dangling reason. The imported reasons are given the worst
// possible ranking (high LBD, zero activity), so only the reason check
// keeps them alive.
func TestParallelReduceDBKeepsSharedReasonClauses(t *testing.T) {
	s := New()
	const triples = 8
	type triple struct{ a, b, c Var }
	ts := make([]triple, triples)
	for i := range ts {
		ts[i] = triple{s.NewVar(), s.NewVar(), s.NewVar()}
	}
	// Heavy sharing: import one ternary clause ¬a ∨ ¬b ∨ c per triple,
	// ranked for pruning (LBD 3), plus inert low-LBD fillers that sort
	// after them — so the reduction zone is exactly the future reasons.
	for _, tr := range ts {
		if imported, alive := s.addSharedAtRoot([]Lit{NegLit(tr.a), NegLit(tr.b), PosLit(tr.c)}, 3); !imported || !alive {
			t.Fatalf("import failed: %v %v", imported, alive)
		}
	}
	for i := 0; i < 4*triples; i++ {
		v1, v2, v3 := s.NewVar(), s.NewVar(), s.NewVar()
		if imported, alive := s.addSharedAtRoot([]Lit{PosLit(v1), PosLit(v2), PosLit(v3)}, 1); !imported || !alive {
			t.Fatalf("filler import failed: %v %v", imported, alive)
		}
	}

	// Drive the imported clauses into reason position: decide a and b of
	// each triple the way search would, propagating c from the import.
	decide := func(l Lit) {
		s.trailLim = append(s.trailLim, int32(len(s.trail)))
		s.uncheckedEnqueue(l, noReason)
		if confl := s.propagate(); !confl.none() {
			t.Fatal("unexpected conflict while staging reasons")
		}
	}
	for _, tr := range ts {
		decide(PosLit(tr.a))
		decide(PosLit(tr.b))
		if s.litValue(PosLit(tr.c)) != LTrue {
			t.Fatalf("import did not propagate c for triple %+v", tr)
		}
	}

	pre := len(s.learnts)
	s.reduceDB()
	if len(s.learnts) == pre {
		t.Fatalf("reduceDB removed nothing (learnts=%d)", pre)
	}

	// Every propagated c must still have its reason in the learnt DB and
	// on the watch lists of both its first two literals.
	inLearnts := func(r clauseRef) bool {
		for _, l := range s.learnts {
			if l == r {
				return true
			}
		}
		return false
	}
	watched := func(r clauseRef) bool {
		ls := s.ca.lits(r)
		for _, wl := range []Lit{ls[0].Not(), ls[1].Not()} {
			found := false
			for _, w := range s.occs[wl].watches {
				if w.ref == r {
					found = true
				}
			}
			if !found {
				return false
			}
		}
		return true
	}
	for _, tr := range ts {
		r := s.vars[tr.c].reason
		if !r.isClause() {
			t.Fatalf("c of triple %+v lost its clause reason after reduceDB", tr)
		}
		if !inLearnts(r.ref) {
			t.Fatalf("reason clause of triple %+v dropped from the learnt DB", tr)
		}
		if !watched(r.ref) {
			t.Fatalf("reason clause of triple %+v detached from its watch lists", tr)
		}
	}

	// The solver must remain fully usable after the reduction.
	s.cancelUntil(0)
	if st := s.Solve(); st != Sat {
		t.Fatalf("got %v after reduction, want Sat", st)
	}
}
