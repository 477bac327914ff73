package sat

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// TestLoadMatchesDirectIntake builds every determinism-corpus formula
// twice — once through direct NewVar/AddClause/AddPB calls, once recorded
// in a batch and handed to Load — and requires the two solvers to be the
// same: counts, root trail, clause arena, watch lists, and then verdict
// and search counters of a Solve.
func TestLoadMatchesDirectIntake(t *testing.T) {
	for _, sc := range determinismScenarios() {
		t.Run(sc.name, func(t *testing.T) {
			direct := New()
			sc.build(t, direct)

			// The journal is the batch recorder the portfolio uses: it
			// records every public intake call made on rec.
			rec := New()
			rec.journal = NewBatch(rec)
			sc.build(t, rec)
			loaded := New()
			if err := loaded.Load(rec.journal); err != nil {
				t.Fatal(err)
			}

			if direct.Stats != loaded.Stats {
				t.Fatalf("stats differ:\n  direct %+v\n  loaded %+v", direct.Stats, loaded.Stats)
			}
			if direct.ok != loaded.ok || !slices.Equal(direct.trail, loaded.trail) || direct.qhead != loaded.qhead {
				t.Fatalf("root state differs: ok %v/%v, trail %v / %v", direct.ok, loaded.ok, direct.trail, loaded.trail)
			}
			if !slices.Equal(direct.ca.data, loaded.ca.data) || !slices.Equal(direct.clauses, loaded.clauses) {
				t.Fatal("clause arena differs")
			}
			if !reflect.DeepEqual(direct.pb, loaded.pb) {
				t.Fatal("PB store differs")
			}
			for l := range direct.occs {
				d, o := direct.occs[l], loaded.occs[l]
				if !slices.Equal(d.watches, o.watches) || !slices.Equal(d.bins, o.bins) || !slices.Equal(d.pbs, o.pbs) {
					t.Fatalf("occurrence lists of %v differ", Lit(l))
				}
			}
			if !slices.Equal(direct.heap.heap, loaded.heap.heap) {
				t.Fatal("decision heap differs")
			}

			dst, lst := direct.Solve(), loaded.Solve()
			if dst != lst || direct.Stats.Conflicts != loaded.Stats.Conflicts ||
				direct.Stats.Decisions != loaded.Stats.Decisions ||
				direct.Stats.Propagations != loaded.Stats.Propagations {
				t.Fatalf("search differs: direct %v %+v, loaded %v %+v", dst, direct.Stats, lst, loaded.Stats)
			}
		})
	}
}

// TestLoadRejectsForeignNumbering checks that a batch made for one
// variable numbering is not loaded into a solver that has moved on.
func TestLoadRejectsForeignNumbering(t *testing.T) {
	s := New()
	b := NewBatch(s)
	v := b.NewVar()
	b.AddClause(PosLit(v))
	s.NewVar()
	if err := s.Load(b); err == nil {
		t.Fatal("Load accepted a batch whose variables the solver already allocated")
	}
}

// TestBatchAppendAllocations guards the recording path: once a batch has
// held a formula of this size, Reset keeps its storage and recording the
// next one allocates nothing.
func TestBatchAppendAllocations(t *testing.T) {
	s := New()
	b := NewBatch(s)
	rng := rand.New(rand.NewSource(3))
	var terms [4]PBTerm
	add := func() {
		v := b.NewVar()
		x, y := MkLit(v, rng.Intn(2) == 0), MkLit(v+1, rng.Intn(2) == 0)
		b.AddClause(x, y, MkLit(v+2, true))
		for i := range terms {
			terms[i] = PBTerm{Coef: int64(1 + i), Lit: MkLit(v+Var(i), false)}
		}
		b.AddPB(terms[:], 3)
	}
	for i := 0; i < 3000; i++ {
		add()
	}
	b.Reset(s)
	if perCall := testing.AllocsPerRun(2000, add) / 3; perCall >= 1 {
		t.Fatalf("recording averaged %.2f allocations per call, want < 1", perCall)
	}
}

// TestParallelJournalRecordsOnce is the regression test for a clause-shaped
// PB constraint added after NewParallel: the journal must carry it once,
// so after sync every worker holds exactly the base's clauses, PB
// constraints and literals.
func TestParallelJournalRecordsOnce(t *testing.T) {
	base := New()
	a, b, c := base.NewVar(), base.NewVar(), base.NewVar()
	base.AddClause(PosLit(a), PosLit(b), PosLit(c))
	p, err := NewParallel(base, ParallelOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	// ¬a + ¬b ≥ 1 normalizes to the clause (¬a ∨ ¬b).
	if err := p.AddPB([]PBTerm{{Coef: 1, Lit: NegLit(a)}, {Coef: 1, Lit: NegLit(b)}}, 1); err != nil {
		t.Fatal(err)
	}
	// A genuine PB constraint and a plain clause ride along.
	if err := p.AddPB([]PBTerm{{Coef: 2, Lit: PosLit(a)}, {Coef: 1, Lit: PosLit(b)}, {Coef: 1, Lit: PosLit(c)}}, 2); err != nil {
		t.Fatal(err)
	}
	if err := p.AddClause(NegLit(c), PosLit(a)); err != nil {
		t.Fatal(err)
	}
	if err := p.sync(); err != nil {
		t.Fatal(err)
	}
	w := p.ws[1].s
	got := [3]int64{int64(w.Stats.NumClauses), int64(w.Stats.NumPB), w.Stats.NumLiterals}
	want := [3]int64{int64(base.Stats.NumClauses), int64(base.Stats.NumPB), base.Stats.NumLiterals}
	if got != want {
		t.Fatalf("worker holds (clauses, PB, literals) = %v, base %v", got, want)
	}
	if len(base.journal.ops) != 0 {
		t.Fatalf("journal holds %d ops after sync, want 0", len(base.journal.ops))
	}
}

// TestCloneAfterLearntsCompactsThemAway clones a solver that holds learnt
// clauses. The clone keeps the arena word for word with the learnt words
// counted as wasted, so compacting it leaves exactly the problem clauses;
// compacted or not, it reaches the base's verdict.
func TestCloneAfterLearntsCompactsThemAway(t *testing.T) {
	for _, sc := range determinismScenarios() {
		t.Run(sc.name, func(t *testing.T) {
			base := New()
			sc.build(t, base)
			base.MaxConflicts = 30
			base.Solve()
			base.MaxConflicts = 0
			if !base.Okay() || len(base.learnts) == 0 {
				t.Skip("the first call refuted the formula or kept no learnt clause")
			}
			c, err := base.CloneAtRoot()
			if err != nil {
				t.Fatal(err)
			}
			checkCloneHasNoLearnts(t, c, base)
			if !slices.Equal(c.ca.data, base.ca.data) {
				t.Fatal("clone arena is not a verbatim copy")
			}
			problem := 1
			for _, r := range c.clauses {
				problem += hdrWords + c.ca.size(r)
			}
			if live := len(c.ca.data) - c.ca.wasted; live != problem {
				t.Fatalf("clone counts %d live words, problem clauses take %d", live, problem)
			}
			c.compactArena()
			if len(c.ca.data) != problem {
				t.Fatalf("compacted clone holds %d words, problem clauses take %d", len(c.ca.data), problem)
			}
			for _, r := range c.clauses {
				if c.ca.learnt(r) {
					t.Fatalf("compacted clone clause %d is flagged learnt", r)
				}
			}
			checkCloneHasNoLearnts(t, c, base)
			if cst, bst := c.Solve(), base.Solve(); cst != bst {
				t.Fatalf("clone says %v, base says %v", cst, bst)
			}
		})
	}
}
