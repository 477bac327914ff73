package sat

import (
	"math/rand"
	"testing"
)

func TestLitEncoding(t *testing.T) {
	v := Var(5)
	p, n := PosLit(v), NegLit(v)
	if p.Var() != v || n.Var() != v {
		t.Fatalf("Var round trip failed: %v %v", p.Var(), n.Var())
	}
	if p.Sign() || !n.Sign() {
		t.Fatalf("sign mismatch")
	}
	if p.Not() != n || n.Not() != p {
		t.Fatalf("Not is not involutive")
	}
	if MkLit(v, false) != p || MkLit(v, true) != n {
		t.Fatalf("MkLit mismatch")
	}
	if p.String() != "5" || n.String() != "-5" {
		t.Fatalf("String mismatch: %q %q", p, n)
	}
}

func TestLBool(t *testing.T) {
	if LTrue.Not() != LFalse || LFalse.Not() != LTrue || LUndef.Not() != LUndef {
		t.Fatal("LBool.Not broken")
	}
	if LTrue.String() != "true" || LFalse.String() != "false" || LUndef.String() != "undef" {
		t.Fatal("LBool.String broken")
	}
}

func TestEmptyFormulaIsSat(t *testing.T) {
	s := New()
	if st := s.Solve(); st != Sat {
		t.Fatalf("empty formula: got %v", st)
	}
}

func TestUnitClause(t *testing.T) {
	s := New()
	a := s.NewVar()
	if err := s.AddClause(PosLit(a)); err != nil {
		t.Fatal(err)
	}
	if st := s.Solve(); st != Sat {
		t.Fatalf("got %v", st)
	}
	if !s.Model(a) {
		t.Fatal("unit literal not true in model")
	}
}

func TestContradictoryUnits(t *testing.T) {
	s := New()
	a := s.NewVar()
	s.AddClause(PosLit(a))
	s.AddClause(NegLit(a))
	if st := s.Solve(); st != Unsat {
		t.Fatalf("got %v", st)
	}
	if s.Okay() {
		t.Fatal("solver should be permanently unsat")
	}
}

func TestEmptyClauseUnsat(t *testing.T) {
	s := New()
	s.NewVar()
	s.AddClause()
	if st := s.Solve(); st != Unsat {
		t.Fatalf("got %v", st)
	}
}

func TestTautologyDropped(t *testing.T) {
	s := New()
	a := s.NewVar()
	if err := s.AddClause(PosLit(a), NegLit(a)); err != nil {
		t.Fatal(err)
	}
	if s.Stats.NumClauses != 0 {
		t.Fatal("tautology should not be stored")
	}
	if st := s.Solve(); st != Sat {
		t.Fatalf("got %v", st)
	}
}

func TestUnallocatedVariableRejected(t *testing.T) {
	s := New()
	if err := s.AddClause(PosLit(Var(7))); err == nil {
		t.Fatal("expected error for unallocated variable")
	}
	if err := s.AddPB([]PBTerm{{Coef: 1, Lit: PosLit(Var(7))}}, 1); err == nil {
		t.Fatal("expected error for unallocated PB variable")
	}
}

func TestSimpleImplicationChain(t *testing.T) {
	s := New()
	vars := make([]Var, 20)
	for i := range vars {
		vars[i] = s.NewVar()
	}
	for i := 0; i+1 < len(vars); i++ {
		s.AddClause(NegLit(vars[i]), PosLit(vars[i+1]))
	}
	s.AddClause(PosLit(vars[0]))
	if st := s.Solve(); st != Sat {
		t.Fatalf("got %v", st)
	}
	for i, v := range vars {
		if !s.Model(v) {
			t.Fatalf("var %d should be true in model", i)
		}
	}
}

func TestPigeonhole(t *testing.T) {
	// n+1 pigeons, n holes: classically UNSAT and exercises learning.
	for n := 2; n <= 6; n++ {
		s := New()
		x := make([][]Var, n+1)
		for p := range x {
			x[p] = make([]Var, n)
			for h := range x[p] {
				x[p][h] = s.NewVar()
			}
		}
		for p := 0; p <= n; p++ {
			lits := make([]Lit, n)
			for h := 0; h < n; h++ {
				lits[h] = PosLit(x[p][h])
			}
			s.AddClause(lits...)
		}
		for h := 0; h < n; h++ {
			for p1 := 0; p1 <= n; p1++ {
				for p2 := p1 + 1; p2 <= n; p2++ {
					s.AddClause(NegLit(x[p1][h]), NegLit(x[p2][h]))
				}
			}
		}
		if st := s.Solve(); st != Unsat {
			t.Fatalf("PHP(%d): got %v", n, st)
		}
	}
}

func TestPigeonholeSatVariant(t *testing.T) {
	// n pigeons, n holes: SAT; the model must be a perfect matching.
	n := 6
	s := New()
	x := make([][]Var, n)
	for p := range x {
		x[p] = make([]Var, n)
		for h := range x[p] {
			x[p][h] = s.NewVar()
		}
	}
	for p := 0; p < n; p++ {
		lits := make([]Lit, n)
		for h := 0; h < n; h++ {
			lits[h] = PosLit(x[p][h])
		}
		s.AddClause(lits...)
	}
	for h := 0; h < n; h++ {
		for p1 := 0; p1 < n; p1++ {
			for p2 := p1 + 1; p2 < n; p2++ {
				s.AddClause(NegLit(x[p1][h]), NegLit(x[p2][h]))
			}
		}
	}
	if st := s.Solve(); st != Sat {
		t.Fatalf("got %v", st)
	}
	used := make([]bool, n)
	for p := 0; p < n; p++ {
		cnt := 0
		for h := 0; h < n; h++ {
			if s.Model(x[p][h]) {
				if used[h] {
					t.Fatalf("hole %d used twice", h)
				}
				used[h] = true
				cnt++
			}
		}
		if cnt < 1 {
			t.Fatalf("pigeon %d unplaced", p)
		}
	}
}

func TestAssumptions(t *testing.T) {
	s := New()
	a, b := s.NewVar(), s.NewVar()
	s.AddClause(PosLit(a), PosLit(b))
	if st := s.Solve(NegLit(a), NegLit(b)); st != Unsat {
		t.Fatalf("assuming both false: got %v", st)
	}
	// The formula itself must remain satisfiable.
	if st := s.Solve(); st != Sat {
		t.Fatalf("without assumptions: got %v", st)
	}
	if st := s.Solve(NegLit(a)); st != Sat {
		t.Fatalf("assuming ¬a: got %v", st)
	}
	if s.Model(a) || !s.Model(b) {
		t.Fatal("model must honor assumption ¬a and imply b")
	}
}

func TestAssumptionAlreadyForced(t *testing.T) {
	s := New()
	a, b := s.NewVar(), s.NewVar()
	s.AddClause(PosLit(a))
	s.AddClause(NegLit(a), PosLit(b))
	if st := s.Solve(PosLit(a), PosLit(b)); st != Sat {
		t.Fatalf("got %v", st)
	}
	if st := s.Solve(NegLit(a)); st != Unsat {
		t.Fatalf("assumption contradicting a unit: got %v", st)
	}
	if !s.Okay() {
		t.Fatal("assumption failure must not poison the solver")
	}
}

func TestIncrementalAddAfterSolve(t *testing.T) {
	s := New()
	a, b, c := s.NewVar(), s.NewVar(), s.NewVar()
	s.AddClause(PosLit(a), PosLit(b))
	if st := s.Solve(); st != Sat {
		t.Fatalf("got %v", st)
	}
	s.AddClause(NegLit(a))
	s.AddClause(NegLit(b), PosLit(c))
	if st := s.Solve(); st != Sat {
		t.Fatalf("got %v", st)
	}
	if s.Model(a) || !s.Model(b) || !s.Model(c) {
		t.Fatal("model inconsistent with added clauses")
	}
	s.AddClause(NegLit(c))
	if st := s.Solve(); st != Unsat {
		t.Fatalf("got %v", st)
	}
}

func TestPBAtLeast(t *testing.T) {
	s := New()
	vars := make([]Var, 5)
	terms := make([]PBTerm, 5)
	for i := range vars {
		vars[i] = s.NewVar()
		terms[i] = PBTerm{Coef: 1, Lit: PosLit(vars[i])}
	}
	// At least 3 of 5.
	s.AddPB(terms, 3)
	if st := s.Solve(); st != Sat {
		t.Fatalf("got %v", st)
	}
	cnt := 0
	for _, v := range vars {
		if s.Model(v) {
			cnt++
		}
	}
	if cnt < 3 {
		t.Fatalf("model sets only %d variables", cnt)
	}
}

func TestPBAtMostOne(t *testing.T) {
	s := New()
	vars := make([]Var, 6)
	lits := make([]Lit, 6)
	for i := range vars {
		vars[i] = s.NewVar()
		lits[i] = PosLit(vars[i])
	}
	s.AddAtMostOne(lits...)
	s.AddClause(lits...) // at least one
	if st := s.Solve(); st != Sat {
		t.Fatalf("got %v", st)
	}
	cnt := 0
	for _, v := range vars {
		if s.Model(v) {
			cnt++
		}
	}
	if cnt != 1 {
		t.Fatalf("exactly-one violated: %d set", cnt)
	}
}

func TestPBWeightedInfeasible(t *testing.T) {
	s := New()
	a, b := s.NewVar(), s.NewVar()
	// 2a + 3b ≥ 6 is impossible (max 5).
	s.AddPB([]PBTerm{{2, PosLit(a)}, {3, PosLit(b)}}, 6)
	if st := s.Solve(); st != Unsat {
		t.Fatalf("got %v", st)
	}
}

func TestPBForcesAll(t *testing.T) {
	s := New()
	a, b, c := s.NewVar(), s.NewVar(), s.NewVar()
	// 1a+1b+1c ≥ 3 forces all true at root level.
	s.AddPB([]PBTerm{{1, PosLit(a)}, {1, PosLit(b)}, {1, PosLit(c)}}, 3)
	if st := s.Solve(); st != Sat {
		t.Fatalf("got %v", st)
	}
	if !s.Model(a) || !s.Model(b) || !s.Model(c) {
		t.Fatal("PB should force all variables true")
	}
}

func TestPBNegativeCoefficients(t *testing.T) {
	s := New()
	a, b := s.NewVar(), s.NewVar()
	// 3a - 2b ≥ 1  ⇔  3a + 2¬b ≥ 3 : satisfiable, needs a true.
	s.AddPB([]PBTerm{{3, PosLit(a)}, {-2, PosLit(b)}}, 1)
	if st := s.Solve(); st != Sat {
		t.Fatalf("got %v", st)
	}
	if 3*b2i(s.Model(a))-2*b2i(s.Model(b)) < 1 {
		t.Fatalf("model violates constraint: a=%v b=%v", s.Model(a), s.Model(b))
	}
}

func TestPBDuplicateVariableMerged(t *testing.T) {
	s := New()
	a := s.NewVar()
	// 2a + 3a ≥ 4 ⇔ 5a ≥ 4 ⇒ a.
	s.AddPB([]PBTerm{{2, PosLit(a)}, {3, PosLit(a)}}, 4)
	if st := s.Solve(); st != Sat {
		t.Fatalf("got %v", st)
	}
	if !s.Model(a) {
		t.Fatal("a must be forced")
	}
}

func TestPBOppositeLiteralsCancel(t *testing.T) {
	s := New()
	a, b := s.NewVar(), s.NewVar()
	// 2a + 2¬a + b ≥ 2 is trivially true (2a+2¬a = 2).
	if err := s.AddPB([]PBTerm{{2, PosLit(a)}, {2, NegLit(a)}, {1, PosLit(b)}}, 2); err != nil {
		t.Fatal(err)
	}
	if s.Stats.NumPB != 0 {
		t.Fatal("trivially true PB should be dropped")
	}
	if st := s.Solve(); st != Sat {
		t.Fatalf("got %v", st)
	}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// --- randomized cross-validation against brute force ---

type rndClause []Lit

type rndPB struct {
	terms []PBTerm
	bound int64
}

// bruteForce enumerates all assignments of nVars variables and reports
// whether any satisfies all clauses and PB constraints.
func bruteForce(nVars int, clauses []rndClause, pbs []rndPB) bool {
	for mask := 0; mask < 1<<nVars; mask++ {
		val := func(l Lit) bool {
			b := mask&(1<<(int(l.Var())-1)) != 0
			if l.Sign() {
				return !b
			}
			return b
		}
		ok := true
		for _, c := range clauses {
			sat := false
			for _, l := range c {
				if val(l) {
					sat = true
					break
				}
			}
			if !sat {
				ok = false
				break
			}
		}
		if ok {
			for _, p := range pbs {
				var sum int64
				for _, t := range p.terms {
					if val(t.Lit) {
						sum += t.Coef
					}
				}
				if sum < p.bound {
					ok = false
					break
				}
			}
		}
		if ok {
			return true
		}
	}
	return false
}

func TestRandomCNFAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 300; iter++ {
		nVars := 3 + rng.Intn(8)
		nClauses := 1 + rng.Intn(30)
		s := New()
		vars := make([]Var, nVars)
		for i := range vars {
			vars[i] = s.NewVar()
		}
		var clauses []rndClause
		for i := 0; i < nClauses; i++ {
			n := 1 + rng.Intn(4)
			c := make(rndClause, n)
			for j := range c {
				c[j] = MkLit(vars[rng.Intn(nVars)], rng.Intn(2) == 0)
			}
			clauses = append(clauses, c)
			s.AddClause(c...)
		}
		want := bruteForce(nVars, clauses, nil)
		got := s.Solve() == Sat
		if got != want {
			t.Fatalf("iter %d: solver=%v brute=%v clauses=%v", iter, got, want, clauses)
		}
		if got {
			// Verify the model actually satisfies every clause.
			for _, c := range clauses {
				sat := false
				for _, l := range c {
					if s.ModelLit(l) {
						sat = true
						break
					}
				}
				if !sat {
					t.Fatalf("iter %d: model violates clause %v", iter, c)
				}
			}
		}
	}
}

func TestRandomPBAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for iter := 0; iter < 300; iter++ {
		nVars := 3 + rng.Intn(7)
		s := New()
		vars := make([]Var, nVars)
		for i := range vars {
			vars[i] = s.NewVar()
		}
		var clauses []rndClause
		var pbs []rndPB
		for i, n := 0, 1+rng.Intn(6); i < n; i++ {
			k := 1 + rng.Intn(4)
			terms := make([]PBTerm, k)
			var maxSum int64
			for j := range terms {
				coef := int64(1 + rng.Intn(5))
				if rng.Intn(4) == 0 {
					coef = -coef
				}
				terms[j] = PBTerm{Coef: coef, Lit: MkLit(vars[rng.Intn(nVars)], rng.Intn(2) == 0)}
				if coef > 0 {
					maxSum += coef
				}
			}
			bound := int64(rng.Intn(int(maxSum+3))) - 1
			pbs = append(pbs, rndPB{terms: terms, bound: bound})
			s.AddPB(terms, bound)
		}
		for i, n := 0, rng.Intn(8); i < n; i++ {
			k := 1 + rng.Intn(3)
			c := make(rndClause, k)
			for j := range c {
				c[j] = MkLit(vars[rng.Intn(nVars)], rng.Intn(2) == 0)
			}
			clauses = append(clauses, c)
			s.AddClause(c...)
		}
		want := bruteForce(nVars, clauses, pbs)
		got := s.Solve() == Sat
		if got != want {
			t.Fatalf("iter %d: solver=%v brute=%v pbs=%v clauses=%v", iter, got, want, pbs, clauses)
		}
		if got {
			for _, p := range pbs {
				var sum int64
				for _, term := range p.terms {
					if s.ModelLit(term.Lit) {
						sum += term.Coef
					}
				}
				if sum < p.bound {
					t.Fatalf("iter %d: model violates PB %v (sum %d)", iter, p, sum)
				}
			}
		}
	}
}

func TestRandomAssumptionsConsistency(t *testing.T) {
	// Solving with assumptions must agree with solving a copy where the
	// assumptions were added as unit clauses.
	rng := rand.New(rand.NewSource(3))
	for iter := 0; iter < 100; iter++ {
		nVars := 4 + rng.Intn(6)
		build := func() (*Solver, []Var) {
			s := New()
			vars := make([]Var, nVars)
			for i := range vars {
				vars[i] = s.NewVar()
			}
			return s, vars
		}
		s1, v1 := build()
		s2, v2 := build()
		r2 := rand.New(rand.NewSource(int64(iter)))
		r1 := rand.New(rand.NewSource(int64(iter)))
		gen := func(s *Solver, vars []Var, rng *rand.Rand) {
			for i, n := 0, 5+rng.Intn(15); i < n; i++ {
				k := 1 + rng.Intn(3)
				c := make([]Lit, k)
				for j := range c {
					c[j] = MkLit(vars[rng.Intn(nVars)], rng.Intn(2) == 0)
				}
				s.AddClause(c...)
			}
		}
		gen(s1, v1, r1)
		gen(s2, v2, r2)
		nAssume := 1 + rng.Intn(3)
		var as1, as2 []Lit
		for i := 0; i < nAssume; i++ {
			idx := rng.Intn(nVars)
			sign := rng.Intn(2) == 0
			as1 = append(as1, MkLit(v1[idx], sign))
			as2 = append(as2, MkLit(v2[idx], sign))
		}
		for _, l := range as2 {
			s2.AddClause(l)
		}
		got := s1.Solve(as1...)
		want := s2.Solve()
		if (got == Sat) != (want == Sat) {
			t.Fatalf("iter %d: assumptions %v vs units %v", iter, got, want)
		}
	}
}

func TestLuby(t *testing.T) {
	want := []int64{1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8}
	for i, w := range want {
		if got := luby(int64(i + 1)); got != w {
			t.Fatalf("luby(%d) = %d, want %d", i+1, got, w)
		}
	}
}

func TestStatsAccumulate(t *testing.T) {
	s := New()
	a, b := s.NewVar(), s.NewVar()
	s.AddClause(PosLit(a), PosLit(b))
	s.AddClause(NegLit(a), PosLit(b))
	s.Solve()
	if s.Stats.NumVars != 2 || s.Stats.NumClauses != 2 {
		t.Fatalf("stats: %+v", s.Stats)
	}
}

func TestMaxConflictsBudget(t *testing.T) {
	// A hard pigeonhole instance with a tiny budget must return Unknown.
	n := 8
	s := New()
	s.MaxConflicts = 5
	x := make([][]Var, n+1)
	for p := range x {
		x[p] = make([]Var, n)
		for h := range x[p] {
			x[p][h] = s.NewVar()
		}
	}
	for p := 0; p <= n; p++ {
		lits := make([]Lit, n)
		for h := 0; h < n; h++ {
			lits[h] = PosLit(x[p][h])
		}
		s.AddClause(lits...)
	}
	for h := 0; h < n; h++ {
		for p1 := 0; p1 <= n; p1++ {
			for p2 := p1 + 1; p2 <= n; p2++ {
				s.AddClause(NegLit(x[p1][h]), NegLit(x[p2][h]))
			}
		}
	}
	if st := s.Solve(); st != Unknown {
		t.Fatalf("got %v, want Unknown under tiny budget", st)
	}
	s.MaxConflicts = 0
	if st := s.Solve(); st != Unsat {
		t.Fatalf("got %v after lifting budget", st)
	}
}

func TestClauseDBReduction(t *testing.T) {
	// Force a tiny learnt-clause budget so reduceDB must fire on a
	// learning-heavy instance.
	s := New()
	s.maxLearnt = 16
	addPigeonhole(s, 6)
	if st := s.Solve(); st != Unsat {
		t.Fatalf("got %v", st)
	}
	if s.Stats.LearntPruned == 0 {
		t.Fatal("expected clause-DB reductions under a tiny budget")
	}
}

func TestRestartsHappen(t *testing.T) {
	s := New()
	addPigeonhole(s, 7)
	if st := s.Solve(); st != Unsat {
		t.Fatalf("got %v", st)
	}
	if s.Stats.Restarts == 0 {
		t.Fatal("a 4k-conflict run must restart at least once")
	}
}

func TestSolveTwiceKeepsLearnts(t *testing.T) {
	// Re-solving the same hard formula must be much cheaper thanks to
	// retained learnt clauses (the §7 mechanism at solver level).
	s := New()
	addPigeonhole(s, 6)
	if st := s.Solve(); st != Unsat {
		t.Fatalf("got %v", st)
	}
	// The solver is permanently unsat; ok flag short-circuits.
	before := s.Stats.Conflicts
	if st := s.Solve(); st != Unsat {
		t.Fatalf("got %v", st)
	}
	if s.Stats.Conflicts != before {
		t.Fatal("re-solving an unsat formula must not search again")
	}
}

func TestAssumptionReSolveCheaper(t *testing.T) {
	// SAT under assumptions: the second solve with the same assumption
	// must reuse learning (fewer additional conflicts than the first).
	s := New()
	x := make([][]Var, 8)
	for p := range x {
		x[p] = make([]Var, 8)
		for h := range x[p] {
			x[p][h] = s.NewVar()
		}
	}
	for p := 0; p < 8; p++ {
		lits := make([]Lit, 8)
		for h := 0; h < 8; h++ {
			lits[h] = PosLit(x[p][h])
		}
		s.AddClause(lits...)
	}
	for h := 0; h < 8; h++ {
		for p1 := 0; p1 < 8; p1++ {
			for p2 := p1 + 1; p2 < 8; p2++ {
				s.AddClause(NegLit(x[p1][h]), NegLit(x[p2][h]))
			}
		}
	}
	assumption := NegLit(x[0][0])
	if st := s.Solve(assumption); st != Sat {
		t.Fatalf("got %v", st)
	}
	first := s.Stats.Conflicts
	if st := s.Solve(assumption); st != Sat {
		t.Fatalf("got %v", st)
	}
	second := s.Stats.Conflicts - first
	if second > first+8 {
		t.Fatalf("re-solve did not benefit from learning: %d then %d", first, second)
	}
}

func TestEnumerateModels(t *testing.T) {
	s := New()
	a, b, c := s.NewVar(), s.NewVar(), s.NewVar()
	// a ∨ b, projected to {a,b}: models (1,0),(0,1),(1,1) → 3 classes.
	s.AddClause(PosLit(a), PosLit(b))
	_ = c
	var seen []map[Var]bool
	n := s.EnumerateModels([]Var{a, b}, 0, func(m map[Var]bool) bool {
		cp := map[Var]bool{a: m[a], b: m[b]}
		seen = append(seen, cp)
		return true
	})
	if n != 3 || len(seen) != 3 {
		t.Fatalf("enumerated %d projections, want 3", n)
	}
	uniq := map[[2]bool]bool{}
	for _, m := range seen {
		key := [2]bool{m[a], m[b]}
		if !m[a] && !m[b] {
			t.Fatal("model violates a∨b")
		}
		if uniq[key] {
			t.Fatal("duplicate projection")
		}
		uniq[key] = true
	}
}

func TestEnumerateModelsLimit(t *testing.T) {
	s := New()
	a, b := s.NewVar(), s.NewVar()
	s.AddClause(PosLit(a), PosLit(b))
	if n := s.EnumerateModels([]Var{a, b}, 2, nil); n != 2 {
		t.Fatalf("limit ignored: %d", n)
	}
}

func TestEnumerateModelsEarlyStop(t *testing.T) {
	s := New()
	a, b := s.NewVar(), s.NewVar()
	s.AddClause(PosLit(a), PosLit(b))
	n := s.EnumerateModels([]Var{a, b}, 0, func(map[Var]bool) bool { return false })
	if n != 1 {
		t.Fatalf("early stop ignored: %d", n)
	}
}

func TestEnumerateModelsUnsat(t *testing.T) {
	s := New()
	a := s.NewVar()
	s.AddClause(PosLit(a))
	s.AddClause(NegLit(a))
	if n := s.EnumerateModels([]Var{a}, 0, nil); n != 0 {
		t.Fatalf("unsat formula enumerated %d models", n)
	}
}

// TestHintSteersModelNotVerdict checks that Hint picks the polarity the
// search tries first — an unconstrained variable takes its hinted value —
// while leaving verdicts alone: a hinted literal that contradicts the
// formula yields the same model class as without the hint, and an UNSAT
// formula stays UNSAT.
func TestHintSteersModelNotVerdict(t *testing.T) {
	s := New()
	x, y, z := s.NewVar(), s.NewVar(), s.NewVar()
	s.AddClause(NegLit(z)) // z is forced false
	s.Hint(PosLit(y))
	s.Hint(PosLit(z))
	if st := s.Solve(); st != Sat {
		t.Fatalf("got %v, want SAT", st)
	}
	if s.Model(x) || !s.Model(y) || s.Model(z) {
		t.Fatalf("model x=%v y=%v z=%v, want x=false (default phase), y=true (hinted), z=false (forced)",
			s.Model(x), s.Model(y), s.Model(z))
	}

	u := php(4)
	for v := Var(1); int(v) <= u.NumVariables(); v++ {
		u.Hint(PosLit(v))
	}
	if st := u.Solve(); st != Unsat {
		t.Fatalf("hinted pigeonhole: got %v, want UNSAT", st)
	}
}
