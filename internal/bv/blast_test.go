package bv

import (
	"math/rand"
	"testing"

	"satalloc/internal/ir"
	"satalloc/internal/sat"
)

func TestWidthFor(t *testing.T) {
	cases := []struct {
		lo, hi int64
		w      int
	}{
		{0, 0, 1},
		{0, 1, 2},
		{-1, 0, 1},
		{-2, 1, 2},
		{0, 7, 4},
		{-8, 7, 4},
		{0, 8, 5},
		{-9, 0, 5},
		{0, 255, 9},
	}
	for _, c := range cases {
		if got := widthFor(c.lo, c.hi); got != c.w {
			t.Errorf("widthFor(%d,%d)=%d want %d", c.lo, c.hi, got, c.w)
		}
	}
}

func solveOne(t *testing.T, f *ir.Formula) (*System, sat.Status) {
	t.Helper()
	sys, err := Compile(f)
	if err != nil {
		t.Fatal(err)
	}
	return sys, sys.Solve()
}

func TestSimpleEquation(t *testing.T) {
	f := ir.NewFormula()
	x := f.Int("x", 0, 100)
	f.Require(ir.Eq(x, ir.Const(42)))
	sys, st := solveOne(t, f)
	if st != sat.Sat {
		t.Fatalf("got %v", st)
	}
	if v := sys.Int(x); v != 42 {
		t.Fatalf("x=%d", v)
	}
}

func TestAddition(t *testing.T) {
	f := ir.NewFormula()
	x := f.Int("x", 0, 50)
	y := f.Int("y", 0, 50)
	f.Require(ir.Eq(ir.Add(x, y), ir.Const(63)))
	f.Require(ir.Eq(x, ir.Const(21)))
	sys, st := solveOne(t, f)
	if st != sat.Sat {
		t.Fatalf("got %v", st)
	}
	if sys.Int(y) != 42 {
		t.Fatalf("y=%d", sys.Int(y))
	}
}

func TestSubtractionNegativeResult(t *testing.T) {
	f := ir.NewFormula()
	x := f.Int("x", -20, 20)
	f.Require(ir.Eq(ir.Sub(ir.Const(3), ir.Const(17)), x))
	sys, st := solveOne(t, f)
	if st != sat.Sat {
		t.Fatalf("got %v", st)
	}
	if sys.Int(x) != -14 {
		t.Fatalf("x=%d", sys.Int(x))
	}
}

func TestMultiplication(t *testing.T) {
	f := ir.NewFormula()
	x := f.Int("x", 2, 12)
	y := f.Int("y", 2, 12)
	f.Require(ir.Eq(ir.Mul(x, y), ir.Const(35)))
	sys, st := solveOne(t, f)
	if st != sat.Sat {
		t.Fatalf("got %v", st)
	}
	a, b := sys.Int(x), sys.Int(y)
	if a*b != 35 {
		t.Fatalf("%d*%d != 35", a, b)
	}
}

func TestMultiplicationSigned(t *testing.T) {
	f := ir.NewFormula()
	x := f.Int("x", -10, 10)
	y := f.Int("y", -10, 10)
	f.Require(ir.Eq(ir.Mul(x, y), ir.Const(-21)))
	f.Require(ir.Lt(x, ir.Const(0)))
	sys, st := solveOne(t, f)
	if st != sat.Sat {
		t.Fatalf("got %v", st)
	}
	a, b := sys.Int(x), sys.Int(y)
	if a*b != -21 || a >= 0 {
		t.Fatalf("x=%d y=%d", a, b)
	}
}

func TestRangeEnforced(t *testing.T) {
	f := ir.NewFormula()
	x := f.Int("x", 3, 6)
	f.Require(ir.Ne(x, ir.Const(3)))
	f.Require(ir.Ne(x, ir.Const(4)))
	f.Require(ir.Ne(x, ir.Const(5)))
	f.Require(ir.Ne(x, ir.Const(6)))
	_, st := solveOne(t, f)
	if st != sat.Unsat {
		t.Fatalf("got %v, range [3,6] exhausted must be unsat", st)
	}
}

func TestInfeasibleArithmetic(t *testing.T) {
	f := ir.NewFormula()
	x := f.Int("x", 0, 10)
	y := f.Int("y", 0, 10)
	f.Require(ir.Eq(ir.Add(x, y), ir.Const(25)))
	_, st := solveOne(t, f)
	if st != sat.Unsat {
		t.Fatalf("got %v", st)
	}
}

func TestBooleanStructure(t *testing.T) {
	f := ir.NewFormula()
	x := f.Int("x", 0, 10)
	b := f.Bool("b")
	f.Require(ir.Imply(b, ir.Eq(x, ir.Const(7))))
	f.Require(ir.Imply(ir.NotE(b), ir.Eq(x, ir.Const(2))))
	f.Require(ir.Ge(x, ir.Const(5)))
	sys, st := solveOne(t, f)
	if st != sat.Sat {
		t.Fatalf("got %v", st)
	}
	if !sys.Bool(b) || sys.Int(x) != 7 {
		t.Fatalf("b=%v x=%d", sys.Bool(b), sys.Int(x))
	}
}

func TestDisjunctiveChoice(t *testing.T) {
	f := ir.NewFormula()
	x := f.Int("x", 0, 20)
	f.Require(ir.Or(ir.Eq(x, ir.Const(3)), ir.Eq(x, ir.Const(17))))
	f.Require(ir.Gt(x, ir.Const(10)))
	sys, st := solveOne(t, f)
	if st != sat.Sat {
		t.Fatalf("got %v", st)
	}
	if sys.Int(x) != 17 {
		t.Fatalf("x=%d", sys.Int(x))
	}
}

func TestModelSatisfiesFormula(t *testing.T) {
	f := ir.NewFormula()
	x := f.Int("x", -7, 9)
	y := f.Int("y", 0, 9)
	z := f.Int("z", -50, 90)
	f.Require(ir.Eq(z, ir.Mul(x, y)))
	f.Require(ir.Ge(z, ir.Const(12)))
	f.Require(ir.Le(ir.Add(x, y), ir.Const(10)))
	sys, st := solveOne(t, f)
	if st != sat.Sat {
		t.Fatalf("got %v", st)
	}
	if !f.Satisfied(sys.Model()) {
		t.Fatalf("model does not satisfy source formula: x=%d y=%d z=%d",
			sys.Int(x), sys.Int(y), sys.Int(z))
	}
}

func TestCeilingEncodingPattern(t *testing.T) {
	// The paper's replacement of ⌈r/t⌉ by an integer I with
	// I·t ≥ r ∧ (I-1)·t < r (conditions (a),(b) in §3). For fixed r, t the
	// encoding must force I = ⌈r/t⌉.
	for _, tc := range []struct{ r, t, want int64 }{
		{0, 5, 0}, {1, 5, 1}, {5, 5, 1}, {6, 5, 2}, {10, 5, 2}, {11, 5, 3}, {14, 7, 2},
	} {
		f := ir.NewFormula()
		i := f.Int("I", 0, 10)
		r := ir.Const(tc.r)
		tt := ir.Const(tc.t)
		f.Require(ir.Ge(ir.Mul(i, tt), r))
		f.Require(ir.Lt(ir.Mul(ir.Sub(i, ir.Const(1)), tt), r))
		sys, st := solveOne(t, f)
		if st != sat.Sat {
			t.Fatalf("r=%d t=%d: %v", tc.r, tc.t, st)
		}
		if got := sys.Int(i); got != tc.want {
			t.Fatalf("⌈%d/%d⌉ = %d, want %d", tc.r, tc.t, got, tc.want)
		}
	}
}

func TestBoundLitsForBinarySearch(t *testing.T) {
	f := ir.NewFormula()
	x := f.Int("x", 0, 100)
	y := f.Int("y", 0, 100)
	f.Require(ir.Eq(ir.Add(x, y), ir.Const(60)))
	f.Require(ir.Ge(x, ir.Const(22)))
	sys, err := Compile(f)
	if err != nil {
		t.Fatal(err)
	}
	if sys.Solve() != sat.Sat {
		t.Fatal("base formula must be sat")
	}
	// x is at least 22; asking x ≤ 10 via assumption must fail but leave
	// the system reusable.
	le10, err := sys.UpperBoundLit(x, 10)
	if err != nil {
		t.Fatal(err)
	}
	if st := sys.Solve(le10); st != sat.Unsat {
		t.Fatalf("x≤10: got %v", st)
	}
	le30, err := sys.UpperBoundLit(x, 30)
	if err != nil {
		t.Fatal(err)
	}
	ge25, err := sys.LowerBoundLit(x, 25)
	if err != nil {
		t.Fatal(err)
	}
	if st := sys.Solve(le30, ge25); st != sat.Sat {
		t.Fatalf("25≤x≤30: got %v", st)
	}
	if v := sys.Int(x); v < 25 || v > 30 {
		t.Fatalf("x=%d outside [25,30]", v)
	}
	if err := sys.AssertLowerBound(x, 40); err != nil {
		t.Fatal(err)
	}
	if sys.Solve() != sat.Sat {
		t.Fatal("x≥40 should still be sat")
	}
	if v := sys.Int(x); v < 40 {
		t.Fatalf("x=%d violates asserted lower bound", v)
	}
}

// TestRandomFormulasAgainstEnumeration cross-validates the whole
// ir→triplet→bitblast→CDCL pipeline against explicit enumeration of the
// source variables on randomly generated formulas.
func TestRandomFormulasAgainstEnumeration(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for iter := 0; iter < 80; iter++ {
		f := ir.NewFormula()
		x := f.Int("x", -3, 4)
		y := f.Int("y", 0, 5)
		b := f.Bool("b")

		var randInt func(d int) ir.IntExpr
		randInt = func(d int) ir.IntExpr {
			if d == 0 || rng.Intn(3) == 0 {
				switch rng.Intn(3) {
				case 0:
					return x
				case 1:
					return y
				default:
					return ir.Const(int64(rng.Intn(7) - 3))
				}
			}
			switch rng.Intn(3) {
			case 0:
				return ir.Add(randInt(d-1), randInt(d-1))
			case 1:
				return ir.Sub(randInt(d-1), randInt(d-1))
			default:
				return ir.Mul(randInt(d-1), randInt(d-1))
			}
		}
		var randBool func(d int) ir.BoolExpr
		randBool = func(d int) ir.BoolExpr {
			if d == 0 || rng.Intn(3) == 0 {
				if rng.Intn(4) == 0 {
					return ir.BoolExpr(b)
				}
				cmps := []func(a, b ir.IntExpr) ir.BoolExpr{ir.Le, ir.Lt, ir.Eq, ir.Ne}
				return cmps[rng.Intn(4)](randInt(1), randInt(1))
			}
			switch rng.Intn(5) {
			case 0:
				return ir.And(randBool(d-1), randBool(d-1))
			case 1:
				return ir.Or(randBool(d-1), randBool(d-1))
			case 2:
				return ir.Imply(randBool(d-1), randBool(d-1))
			case 3:
				return ir.Iff(randBool(d-1), randBool(d-1))
			default:
				return ir.NotE(randBool(d - 1))
			}
		}
		for i, n := 0, 1+rng.Intn(3); i < n; i++ {
			f.Require(randBool(2))
		}

		want := false
		for xv := int64(-3); xv <= 4 && !want; xv++ {
			for yv := int64(0); yv <= 5 && !want; yv++ {
				for _, bval := range []bool{false, true} {
					a := ir.NewAssignment()
					a.Ints[x], a.Ints[y] = xv, yv
					a.Bools[b] = bval
					if f.Satisfied(a) {
						want = true
						break
					}
				}
			}
		}

		sys, err := Compile(f)
		if err != nil {
			t.Fatal(err)
		}
		got := sys.Solve() == sat.Sat
		if got != want {
			t.Fatalf("iter %d: solver=%v enumeration=%v asserts=%v", iter, got, want, f.Asserts)
		}
		if got && !f.Satisfied(sys.Model()) {
			t.Fatalf("iter %d: extracted model does not satisfy formula", iter)
		}
	}
}

// TestRandomArithmeticIdentities forces x,y to random concrete values and
// checks the circuits compute the exact arithmetic results.
func TestRandomArithmeticIdentities(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for iter := 0; iter < 60; iter++ {
		xv := int64(rng.Intn(61) - 30)
		yv := int64(rng.Intn(61) - 30)
		f := ir.NewFormula()
		x := f.Int("x", -30, 30)
		y := f.Int("y", -30, 30)
		sum := f.Int("s", -60, 60)
		diff := f.Int("d", -60, 60)
		prod := f.Int("p", -900, 900)
		f.Require(ir.Eq(x, ir.Const(xv)))
		f.Require(ir.Eq(y, ir.Const(yv)))
		f.Require(ir.Eq(sum, ir.Add(x, y)))
		f.Require(ir.Eq(diff, ir.Sub(x, y)))
		f.Require(ir.Eq(prod, ir.Mul(x, y)))
		sys, st := solveOne(t, f)
		if st != sat.Sat {
			t.Fatalf("iter %d: %v", iter, st)
		}
		if sys.Int(sum) != xv+yv || sys.Int(diff) != xv-yv || sys.Int(prod) != xv*yv {
			t.Fatalf("iter %d: x=%d y=%d got s=%d d=%d p=%d", iter, xv, yv,
				sys.Int(sum), sys.Int(diff), sys.Int(prod))
		}
	}
}

// TestAssignmentLitsSpellOutModel checks that AssignmentLits maps a
// source-level assignment onto the solver literals that carry it: every
// literal of a model's own assignment is true in that model, values
// outside a variable's range are skipped, and hinting the literals of a
// chosen solution steers the next search to exactly that solution.
func TestAssignmentLitsSpellOutModel(t *testing.T) {
	f := ir.NewFormula()
	x := f.Int("x", 0, 20)
	y := f.Int("y", -5, 5)
	p := f.Bool("p")
	f.Require(ir.Eq(ir.Add(x, y), ir.Const(9)))
	f.Require(ir.Imply(p, ir.Ge(x, ir.Const(10))))
	sys, st := solveOne(t, f)
	if st != sat.Sat {
		t.Fatalf("got %v", st)
	}
	lits := sys.AssignmentLits(sys.Model())
	if len(lits) == 0 {
		t.Fatal("no literals for a full model")
	}
	for _, l := range lits {
		if !sys.S.ModelLit(l) {
			t.Fatalf("literal %v is false in the model it was read from", l)
		}
	}
	if got := sys.AssignmentLits(&ir.Assignment{Ints: map[*ir.IntVar]int64{x: 21}}); len(got) != 0 {
		t.Fatalf("out-of-range value produced %d literals", len(got))
	}

	want := &ir.Assignment{
		Ints:  map[*ir.IntVar]int64{x: 13, y: -4},
		Bools: map[*ir.BoolVar]bool{p: true},
	}
	fresh, err := Compile(f)
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range fresh.AssignmentLits(want) {
		fresh.S.Hint(l)
	}
	if st := fresh.Solve(); st != sat.Sat {
		t.Fatalf("hinted solve got %v", st)
	}
	if fresh.Int(x) != 13 || fresh.Int(y) != -4 || !fresh.Bool(p) {
		t.Fatalf("hinted solve found x=%d y=%d p=%v, want the hinted 13, -4, true",
			fresh.Int(x), fresh.Int(y), fresh.Bool(p))
	}
}

// TestLinearRowsMatchEnumeration checks the PB emission of linear rows:
// for every valuation of the rows' variables and
// guard, pinned through assumptions, the solver's verdict must equal the
// rows evaluated directly. The rows include a guarded one, a zero
// coefficient, and vacuous ones that no valuation violates.
func TestLinearRowsMatchEnumeration(t *testing.T) {
	f := ir.NewFormula()
	x, y, z, g := f.Bool("x"), f.Bool("y"), f.Bool("z"), f.Bool("g")
	vars := []*ir.BoolVar{x, y, z, g}
	f.RequireLinear([]ir.Term{{Coef: 3, Var: x}, {Coef: 2, Var: y}, {Coef: 0, Var: g}, {Coef: 2, Var: z}}, 4)
	f.RequireLinear([]ir.Term{{Coef: 5, Var: y}, {Coef: 4, Var: z}}, 8).Guard = g
	f.RequireLinear([]ir.Term{{Coef: 1, Var: x}, {Coef: 2, Var: y}}, 3)
	f.RequireLinear([]ir.Term{{Coef: 1, Var: x}}, 1).Guard = g
	sys, err := Compile(f)
	if err != nil {
		t.Fatal(err)
	}
	for mask := 0; mask < 1<<len(vars); mask++ {
		a := ir.NewAssignment()
		var asm []sat.Lit
		for i, v := range vars {
			val := mask&(1<<i) != 0
			a.Bools[v] = val
			l := sat.PosLit(sys.BoolSolverVar(v))
			if !val {
				l = l.Not()
			}
			asm = append(asm, l)
		}
		want := sat.Unsat
		if f.Satisfied(a) {
			want = sat.Sat
		}
		if st := sys.Solve(asm...); st != want {
			t.Fatalf("x,y,z,g=%04b: %v, want %v", mask, st, want)
		}
	}
}

// TestLinearRowsOnFoldedFalseFormula: a formula that folds to false
// still compiles with linear rows present and is refuted.
func TestLinearRowsOnFoldedFalseFormula(t *testing.T) {
	f := ir.NewFormula()
	x, y := f.Bool("x"), f.Bool("y")
	f.RequireLinear([]ir.Term{{Coef: 2, Var: x}, {Coef: 2, Var: y}}, 3)
	f.Require(ir.False())
	if _, st := solveOne(t, f); st != sat.Unsat {
		t.Fatalf("got %v", st)
	}
}
