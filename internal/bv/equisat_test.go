package bv

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"satalloc/internal/ir"
	"satalloc/internal/sat"
)

// equisatChecks are the checks the harness runs on every formula; each
// compares the encoder with ir.Formula.Satisfied by a different route.
// The subtest names are the harness's long-standing IDs: they once named
// encoder variants (the unhashed legacy path, the ladder comparator) that
// have since been removed, and they are kept so results stay comparable
// with earlier runs.
var equisatChecks = []struct {
	name  string
	check func(*testing.T, *ir.Formula)
}{
	{"hash-adder", checkEncodingExact},
	{"hash-adder-cnf", checkExportExact},
	{"hash-ladder", checkNegationExact},
	{"legacy", checkModelCount},
}

// runEquisatChecks runs every equisatChecks entry on f as a subtest of t.
func runEquisatChecks(t *testing.T, f *ir.Formula) {
	for _, c := range equisatChecks {
		t.Run(c.name, func(t *testing.T) { c.check(t, f) })
	}
}

// forEachAssignment walks the cross product of f's variable domains,
// calling visit on each full assignment until it returns false.
func forEachAssignment(f *ir.Formula, visit func(*ir.Assignment) bool) {
	asn := ir.NewAssignment()
	var walk func(iv, bvi int) bool
	walk = func(iv, bvi int) bool {
		if iv < len(f.IntVars) {
			v := f.IntVars[iv]
			for val := v.Lo; val <= v.Hi; val++ {
				asn.Ints[v] = val
				if !walk(iv+1, bvi) {
					return false
				}
			}
			return true
		}
		if bvi < len(f.BoolVars) {
			v := f.BoolVars[bvi]
			for _, val := range []bool{false, true} {
				asn.Bools[v] = val
				if !walk(iv, bvi+1) {
					return false
				}
			}
			return true
		}
		return visit(asn)
	}
	walk(0, 0)
}

// pinLits returns the solver literals that pin asn: v ≤ val and v ≥ val
// through the comparator for each integer, the carrying variable for each
// Boolean.
func pinLits(t *testing.T, f *ir.Formula, sys *System, asn *ir.Assignment) []sat.Lit {
	t.Helper()
	var lits []sat.Lit
	for _, v := range f.IntVars {
		le, err := sys.UpperBoundLit(v, asn.Ints[v])
		if err != nil {
			t.Fatalf("upper bound lit: %v", err)
		}
		ge, err := sys.LowerBoundLit(v, asn.Ints[v])
		if err != nil {
			t.Fatalf("lower bound lit: %v", err)
		}
		lits = append(lits, le, ge)
	}
	for _, v := range f.BoolVars {
		lits = append(lits, sat.MkLit(sys.BoolSolverVar(v), !asn.Bools[v]))
	}
	return lits
}

// checkExact verifies that solver s, which holds the encoding sys of f,
// agrees with the ground truth evaluator on EVERY full assignment of the
// source variables: s under assumptions pinning each variable must answer
// Sat exactly when ir.Formula.Satisfied does. This is stronger than
// equisatisfiability — it proves the encoding is a faithful definition of
// f over the source vocabulary.
func checkExact(t *testing.T, f *ir.Formula, sys *System, s *sat.Solver) {
	t.Helper()
	if sys.Tr.Unsat {
		// The tripletizer folded the formula to false; the ground truth
		// must agree on every assignment, which the empty-clause encoding
		// trivially matches — verify there is no satisfying assignment.
		if st := s.Solve(); st != sat.Unsat {
			t.Fatalf("folded-unsat formula solved as %v", st)
		}
		forEachAssignment(f, func(asn *ir.Assignment) bool {
			if f.Satisfied(asn) {
				t.Errorf("encoder folded to unsat but %v satisfies the formula", renderAsn(f, asn))
				return false
			}
			return true
		})
		return
	}
	forEachAssignment(f, func(asn *ir.Assignment) bool {
		want := f.Satisfied(asn)
		got := s.Solve(pinLits(t, f, sys, asn)...) == sat.Sat
		if got != want {
			t.Errorf("assignment %v: encoded=%v ground-truth=%v", renderAsn(f, asn), got, want)
			return false
		}
		return true
	})
}

// checkEncodingExact compiles f and checks the encoding with checkExact.
func checkEncodingExact(t *testing.T, f *ir.Formula) {
	t.Helper()
	sys, err := Compile(f)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	checkExact(t, f, sys, sys.S)
}

// checkExportExact checks the encoding of f as it leaves the process: it
// is written in OPB, read back into a fresh solver, and that solver must
// pass checkExact under the same pinning literals. Every pinning literal
// is built before the export, so the file holds its definition too.
func checkExportExact(t *testing.T, f *ir.Formula) {
	t.Helper()
	sys, err := Compile(f)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	if !sys.Tr.Unsat {
		forEachAssignment(f, func(asn *ir.Assignment) bool {
			pinLits(t, f, sys, asn)
			return true
		})
	}
	var buf bytes.Buffer
	if err := sys.S.WriteOPB(&buf); err != nil {
		t.Fatalf("write OPB: %v", err)
	}
	s, _, err := sat.ParseOPB(&buf)
	if err != nil {
		t.Fatalf("parse OPB: %v", err)
	}
	// Variables that occur in no constraint are absent from the file;
	// declare them so solver variable numbers line up.
	for s.NumVariables() < sys.S.NumVariables() {
		s.NewVar()
	}
	checkExact(t, f, sys, s)
}

// checkNegationExact checks the encoding of ¬f over f's variables. The
// gate cache shares one wire between a subformula and its complement, so
// an assert under negation reaches every gate with the opposite polarity
// from f's own encoding.
func checkNegationExact(t *testing.T, f *ir.Formula) {
	t.Helper()
	if len(f.Linear) > 0 {
		t.Fatalf("negation of linear rows is not expressible as an assert")
	}
	neg := &ir.Formula{
		IntVars:  f.IntVars,
		BoolVars: f.BoolVars,
		Asserts:  []ir.BoolExpr{ir.NotE(ir.And(f.Asserts...))},
	}
	checkEncodingExact(t, neg)
}

// checkModelCount enumerates the models of the encoding of f projected
// onto the source variables' solver bits. Each must decode to a distinct
// assignment that satisfies f, and there must be exactly as many as the
// ground truth counts — so the encoding neither loses a solution nor
// admits a value outside a variable's declared range.
func checkModelCount(t *testing.T, f *ir.Formula) {
	t.Helper()
	want := 0
	forEachAssignment(f, func(asn *ir.Assignment) bool {
		if f.Satisfied(asn) {
			want++
		}
		return true
	})
	sys, err := Compile(f)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	if sys.Tr.Unsat {
		if want != 0 {
			t.Errorf("encoder folded to unsat but %d assignments satisfy the formula", want)
		}
		return
	}
	var vars []sat.Var
	for _, v := range f.IntVars {
		for _, l := range sys.B.vecs[sys.Tr.SourceInt[v.ID]] {
			vars = append(vars, l.Var())
		}
	}
	for _, v := range f.BoolVars {
		vars = append(vars, sys.BoolSolverVar(v))
	}
	seen := map[string]bool{}
	got := sys.S.EnumerateModels(vars, want+1, func(map[sat.Var]bool) bool {
		asn := sys.Model()
		key := renderAsn(f, asn)
		if seen[key] {
			t.Errorf("model %v enumerated twice", key)
			return false
		}
		seen[key] = true
		if !f.Satisfied(asn) {
			t.Errorf("model %v does not satisfy the formula", key)
			return false
		}
		return true
	})
	if !t.Failed() && got != want {
		t.Errorf("encoding has %d models, ground truth %d", got, want)
	}
}

func renderAsn(f *ir.Formula, a *ir.Assignment) string {
	s := ""
	for _, v := range f.IntVars {
		s += fmt.Sprintf("%s=%d ", v.Name, a.Ints[v])
	}
	for _, v := range f.BoolVars {
		s += fmt.Sprintf("%s=%t ", v.Name, a.Bools[v])
	}
	return s
}

// tinyFormulas is a hand-built corpus covering every triplet family the
// blaster handles: add/sub/mul (variable and constant operands), all
// relational operators, all gates, shared subterms (the hashing targets),
// and negative ranges.
func tinyFormulas() map[string]*ir.Formula {
	out := map[string]*ir.Formula{}

	f := ir.NewFormula()
	x := f.Int("x", 0, 5)
	y := f.Int("y", -2, 3)
	f.Require(ir.Le(ir.Add(x, y), ir.Const(4)))
	f.Require(ir.Ge(ir.Sub(x, y), ir.Const(1)))
	out["add-sub"] = f

	f = ir.NewFormula()
	x = f.Int("x", 0, 3)
	y = f.Int("y", 0, 3)
	f.Require(ir.Eq(ir.Mul(x, y), ir.Const(6)))
	out["mul"] = f

	f = ir.NewFormula()
	x = f.Int("x", -3, 4)
	f.Require(ir.Lt(ir.Mul(ir.Const(3), x), ir.Const(7)))
	f.Require(ir.Ne(x, ir.Const(0)))
	f.Require(ir.Ge(ir.Mul(x, ir.Const(-2)), ir.Const(-6)))
	out["mul-const"] = f

	// Shared subterm x+y referenced three times — the CSE target.
	f = ir.NewFormula()
	x = f.Int("x", 0, 6)
	y = f.Int("y", 0, 6)
	s := ir.Add(x, y)
	f.Require(ir.Le(s, ir.Const(9)))
	f.Require(ir.Ge(s, ir.Const(3)))
	f.Require(ir.Ne(s, ir.Const(5)))
	out["shared-sum"] = f

	f = ir.NewFormula()
	a := f.Bool("a")
	b := f.Bool("b")
	c := f.Bool("c")
	x = f.Int("x", 0, 2)
	f.Require(ir.Iff(ir.And(a, ir.Or(b, c)), ir.Le(x, ir.Const(1))))
	f.Require(ir.Imply(a, ir.Xor(b, c)))
	out["gates"] = f

	f = ir.NewFormula()
	x = f.Int("x", -4, 3)
	y = f.Int("y", -4, 3)
	f.Require(ir.Eq(ir.Add(ir.Mul(x, x), ir.Mul(y, y)), ir.Const(13)))
	out["squares"] = f

	return out
}

func TestEquisatTinyCorpus(t *testing.T) {
	for name, f := range tinyFormulas() {
		t.Run(name, func(t *testing.T) { runEquisatChecks(t, f) })
	}
}

// randomFormula builds a seeded random formula: a few small-range ints and
// bools, a pool of random arithmetic terms reusing earlier terms (so the
// structural hasher has real sharing to find), and a handful of random
// relational/gate constraints.
func randomFormula(seed int64) *ir.Formula {
	rng := rand.New(rand.NewSource(seed))
	f := ir.NewFormula()
	ints := []ir.IntExpr{}
	for i := 0; i < 2+rng.Intn(2); i++ {
		lo := int64(rng.Intn(5)) - 3
		hi := lo + int64(1+rng.Intn(5))
		ints = append(ints, f.Int(fmt.Sprintf("v%d", i), lo, hi))
	}
	bools := []ir.BoolExpr{}
	for i := 0; i < 2; i++ {
		bools = append(bools, f.Bool(fmt.Sprintf("p%d", i)))
	}
	term := func() ir.IntExpr { return ints[rng.Intn(len(ints))] }
	for i := 0; i < 3; i++ {
		a, b := term(), term()
		switch rng.Intn(4) {
		case 0:
			ints = append(ints, ir.Add(a, b))
		case 1:
			ints = append(ints, ir.Sub(a, b))
		case 2:
			ints = append(ints, ir.Mul(a, ir.Const(int64(rng.Intn(5))-2)))
		case 3:
			ints = append(ints, ir.Mul(a, b))
		}
	}
	cmp := func() ir.BoolExpr {
		a, b := term(), term()
		k := ir.Const(int64(rng.Intn(13)) - 6)
		switch rng.Intn(5) {
		case 0:
			return ir.Le(a, k)
		case 1:
			return ir.Lt(a, b)
		case 2:
			return ir.Eq(a, k)
		case 3:
			return ir.Ne(a, b)
		default:
			return ir.Ge(a, k)
		}
	}
	boolTerm := func() ir.BoolExpr {
		if rng.Intn(2) == 0 {
			return bools[rng.Intn(len(bools))]
		}
		return cmp()
	}
	for i := 0; i < 3+rng.Intn(3); i++ {
		a, b := boolTerm(), boolTerm()
		switch rng.Intn(5) {
		case 0:
			f.Require(ir.Or(a, b))
		case 1:
			f.Require(ir.Imply(a, b))
		case 2:
			f.Require(ir.Iff(a, ir.NotE(b)))
		case 3:
			f.Require(ir.Xor(a, b))
		default:
			f.Require(ir.Or(a, ir.NotE(b)))
		}
	}
	return f
}

func TestEquisatFuzzSeeds(t *testing.T) {
	for seed := int64(1); seed <= 25; seed++ {
		f := randomFormula(seed)
		// Skip blown-up domains: the walk is exponential in variables.
		space := int64(1)
		for _, v := range f.IntVars {
			space *= v.Hi - v.Lo + 1
		}
		if space > 1<<10 {
			continue
		}
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) { runEquisatChecks(t, f) })
	}
}

// TestHashingReducesEncoding pins the headline property of structural
// hashing: on a formula whose circuits share a subterm the gate cache must
// report genuine reuse, and its accounting must balance. 3·v and 7·v both
// build the v + 2v adder of the shift-add multiplier; the second product
// takes it from the cache.
func TestHashingReducesEncoding(t *testing.T) {
	f := ir.NewFormula()
	v := f.Int("v", 0, 15)
	f.Require(ir.Le(ir.Mul(ir.Const(3), v), ir.Const(40)))
	f.Require(ir.Le(ir.Mul(ir.Const(7), v), ir.Const(90)))
	sys, err := Compile(f)
	if err != nil {
		t.Fatal(err)
	}
	st := sys.B.Stats()
	if st.GatesRequested == 0 || st.GatesEmitted == 0 {
		t.Fatalf("no gate accounting: %+v", st)
	}
	if st.GatesReused() <= 0 {
		t.Errorf("gate cache saw no reuse on a sharing-heavy formula: %+v", st)
	}
	if st.GatesEmitted+st.GatesFolded+st.GatesReused() != st.GatesRequested {
		t.Errorf("gate accounting does not balance: %+v", st)
	}
}
