package sat

import (
	"sync"
	"testing"
)

// TestParallelCloneCopiesRootState checks the copy-based CloneAtRoot on
// every determinism-corpus formula, grown the way the optimizer grows its
// solver: root units, a first SOLVE that leaves learnt clauses (and learnt
// root units) behind, then a journaled bound circuit — fresh variables
// tied to existing ones by clauses and capped by a PB constraint. The
// clone must carry the problem clauses only, and solved alone each of
// clone and base must give the same verdict, with every clone model
// satisfying the base formula. The two solve concurrently, so under -race
// any state the clone still shares with its base is reported.
func TestParallelCloneCopiesRootState(t *testing.T) {
	for _, sc := range determinismScenarios() {
		t.Run(sc.name, func(t *testing.T) {
			base := New()
			sc.build(t, base)
			if err := base.AddClause(PosLit(1)); err != nil {
				t.Fatal(err)
			}
			if err := base.AddClause(NegLit(2), NegLit(3)); err != nil {
				t.Fatal(err)
			}
			base.Solve()

			base.journal = &journal{}
			n := base.NumVariables()
			var bound []PBTerm
			for i := 0; i < 6; i++ {
				x := PosLit(Var(1 + (i*7)%n))
				y := PosLit(base.NewVar())
				if err := base.AddClause(y.Not(), x); err != nil {
					t.Fatal(err)
				}
				if err := base.AddClause(x.Not(), y); err != nil {
					t.Fatal(err)
				}
				bound = append(bound, PBTerm{Coef: int64(1 + i%3), Lit: y.Not()})
			}
			if err := base.AddPB(bound, 4); err != nil {
				t.Fatal(err)
			}
			if len(base.journal.entries) == 0 {
				t.Fatal("bound circuit was not journaled")
			}

			c, err := base.CloneAtRoot()
			if err != nil {
				t.Fatal(err)
			}
			checkCloneHasNoLearnts(t, c, base)

			var cst, bst Status
			var wg sync.WaitGroup
			wg.Add(2)
			go func() { defer wg.Done(); cst = c.Solve() }()
			go func() { defer wg.Done(); bst = base.Solve() }()
			wg.Wait()
			if cst != bst {
				t.Fatalf("clone says %v, base says %v", cst, bst)
			}
			if cst == Sat {
				checkModelSatisfies(t, c, base)
			}
		})
	}
}

// checkCloneHasNoLearnts verifies that c holds exactly base's problem
// clauses and that its watch lists reference nothing else.
func checkCloneHasNoLearnts(t *testing.T, c, base *Solver) {
	t.Helper()
	if len(c.learnts) != 0 || c.Stats.LearntAdded != 0 {
		t.Fatalf("clone carries %d learnts (%d added)", len(c.learnts), c.Stats.LearntAdded)
	}
	if !base.ok {
		return
	}
	if len(c.clauses) != len(base.clauses) || c.pb.count() != base.pb.count() {
		t.Fatalf("clone holds %d clauses and %d PB constraints, base %d and %d",
			len(c.clauses), c.pb.count(), len(base.clauses), base.pb.count())
	}
	problem := map[clauseRef]bool{}
	for _, r := range c.clauses {
		if c.ca.learnt(r) {
			t.Fatalf("clone clause %d is flagged learnt", r)
		}
		problem[r] = true
	}
	for l := range c.occs {
		for _, w := range c.occs[l].watches {
			if !problem[w.ref] {
				t.Fatalf("watch list of %v references non-problem clause %d", Lit(l), w.ref)
			}
		}
		for _, w := range c.occs[l].bins {
			if !problem[w.ref] {
				t.Fatalf("binary watch list of %v references non-problem clause %d", Lit(l), w.ref)
			}
		}
	}
}

// checkModelSatisfies evaluates base's root facts, problem clauses and PB
// constraints under c's model.
func checkModelSatisfies(t *testing.T, c, base *Solver) {
	t.Helper()
	for _, l := range base.trail {
		if base.vars[l.Var()].level == 0 && !c.ModelLit(l) {
			t.Fatalf("clone model falsifies root fact %v", l)
		}
	}
	for _, r := range base.clauses {
		sat := false
		for _, l := range base.ca.lits(r) {
			sat = sat || c.ModelLit(l)
		}
		if !sat {
			t.Fatalf("clone model falsifies clause %v", base.ca.lits(r))
		}
	}
	for id := pbID(1); int(id) <= base.pb.count(); id++ {
		var sum int64
		for _, term := range base.pb.body(id) {
			if c.ModelLit(term.Lit) {
				sum += term.Coef
			}
		}
		if sum < base.pb.hdr[id].bound {
			t.Fatalf("clone model falsifies PB constraint %v ≥ %d", base.pb.body(id), base.pb.hdr[id].bound)
		}
	}
}
