package sat

import (
	"math/rand"
	"testing"
)

// TestArenaCompactionPreservesReasons is the arena-relocation regression
// guard: reduceDB frees pruned clauses and, once freed words dominate,
// compaction physically moves every surviving clause. Clauses currently
// serving as propagation reasons must come through relocation with their
// reason slots, watch lists, and literals all remapped consistently —
// a stale ref would make conflict analysis explain a propagation with
// whatever clause later landed on the old address.
func TestArenaCompactionPreservesReasons(t *testing.T) {
	s := New()
	const triples = 10
	type triple struct{ a, b, c Var }
	ts := make([]triple, triples)
	for i := range ts {
		ts[i] = triple{s.NewVar(), s.NewVar(), s.NewVar()}
	}
	// Reasons-to-be: one ternary implication per triple, ranked for
	// pruning (high LBD) so only the reason check keeps them alive.
	for _, tr := range ts {
		if imported, alive := s.addSharedAtRoot([]Lit{NegLit(tr.a), NegLit(tr.b), PosLit(tr.c)}, 3); !imported || !alive {
			t.Fatalf("import failed: %v %v", imported, alive)
		}
	}
	// Bulk filler learnts with long literal blocks: pruning them frees
	// enough arena words that reduceDB's compaction threshold trips.
	rng := rand.New(rand.NewSource(7))
	filler := make([]Var, 40)
	for i := range filler {
		filler[i] = s.NewVar()
	}
	for i := 0; i < 6*triples; i++ {
		lits := make([]Lit, 0, 12)
		seen := map[Var]bool{}
		for len(lits) < 12 {
			v := filler[rng.Intn(len(filler))]
			if seen[v] {
				continue
			}
			seen[v] = true
			lits = append(lits, PosLit(v))
		}
		if imported, alive := s.addSharedAtRoot(lits, 3); !imported || !alive {
			t.Fatalf("filler import failed: %v %v", imported, alive)
		}
	}

	// Drive the triple clauses into reason position.
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

	// Record each reason's literals before relocation.
	type snap struct {
		tr   triple
		lits []Lit
	}
	var snaps []snap
	for _, tr := range ts {
		r := s.vars[tr.c].reason
		if !r.isClause() {
			t.Fatalf("triple %+v has no clause reason before reduceDB", tr)
		}
		snaps = append(snaps, snap{tr: tr, lits: append([]Lit(nil), s.ca.lits(r.ref)...)})
	}

	// Each reduceDB round prunes half the prunable learnts and frees
	// their arena words; within a few rounds the freed words cross the
	// compaction threshold and the surviving clauses relocate.
	preWords := len(s.ca.data)
	compacted := false
	for round := 0; round < 6; round++ {
		s.reduceDB()
		if s.ca.wasted == 0 && s.Stats.LearntPruned > 0 && len(s.ca.data) < preWords {
			compacted = true
			break
		}
	}
	if !compacted {
		t.Fatalf("compaction never fired: pruned=%d wasted=%d words=%d (pre %d)",
			s.Stats.LearntPruned, s.ca.wasted, len(s.ca.data), preWords)
	}

	// Every reason survived relocation: same literals at the remapped
	// ref, present in the learnt list, watched under its first two
	// literals, and the watch entries agree with the reason slot.
	for _, sn := range snaps {
		r := s.vars[sn.tr.c].reason
		if !r.isClause() {
			t.Fatalf("triple %+v lost its clause reason across compaction", sn.tr)
		}
		got := s.ca.lits(r.ref)
		if len(got) != len(sn.lits) {
			t.Fatalf("triple %+v reason length changed: %v -> %v", sn.tr, sn.lits, got)
		}
		for i := range got {
			if got[i] != sn.lits[i] {
				t.Fatalf("triple %+v reason literals changed: %v -> %v", sn.tr, sn.lits, got)
			}
		}
		inLearnts := false
		for _, l := range s.learnts {
			if l == r.ref {
				inLearnts = true
			}
		}
		if !inLearnts {
			t.Fatalf("triple %+v reason ref %d not in the learnt list after compaction", sn.tr, r.ref)
		}
		for _, wl := range []Lit{got[0].Not(), got[1].Not()} {
			found := false
			for _, w := range s.occs[wl].watches {
				if w.ref == r.ref {
					found = true
				}
			}
			if !found {
				t.Fatalf("triple %+v reason ref %d missing from watch list of %v", sn.tr, r.ref, wl)
			}
		}
	}

	// The solver stays fully usable: backtrack and solve to completion,
	// then force a conflict that must walk the relocated reasons during
	// analysis.
	s.cancelUntil(0)
	if st := s.Solve(); st != Sat {
		t.Fatalf("got %v after compaction, want Sat", st)
	}
	for _, tr := range ts {
		if err := s.AddClause(NegLit(tr.c)); err != nil {
			t.Fatal(err)
		}
		if err := s.AddClause(PosLit(tr.a)); err != nil {
			t.Fatal(err)
		}
		if err := s.AddClause(PosLit(tr.b)); err != nil {
			t.Fatal(err)
		}
	}
	if st := s.Solve(); st != Unsat {
		t.Fatalf("got %v after forcing triple conflicts, want Unsat", st)
	}
}
