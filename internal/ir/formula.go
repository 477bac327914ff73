package ir

import "fmt"

// Formula is a conjunction of Boolean constraints over declared integer and
// Boolean variables — the "set of arithmetic formulae over integers
// connected by conjunction" of §3 of the paper.
type Formula struct {
	IntVars  []*IntVar
	BoolVars []*BoolVar
	Asserts  []BoolExpr
	// Linear holds the asserted Boolean-weighted linear rows (see
	// RequireLinear); they sit beside Asserts rather than inside the
	// expression tree so the bit-blaster can hand each to the solver as
	// one pseudo-Boolean constraint instead of an adder circuit.
	Linear []*Linear
}

// Term is one weighted Boolean of a linear row: Coef·[Var].
type Term struct {
	Coef int64
	Var  *BoolVar
}

// Linear is the row Σ Coef_i·[Var_i] ≤ Bound over declared Boolean
// variables, with non-negative coefficients. A non-nil Guard makes it
// conditional: the row must hold only when Guard is true.
type Linear struct {
	Terms []Term
	Bound int64
	Guard *BoolVar
}

// NewFormula returns an empty formula.
func NewFormula() *Formula { return &Formula{} }

// Int declares a fresh bounded integer variable lo ≤ v ≤ hi.
func (f *Formula) Int(name string, lo, hi int64) *IntVar {
	if lo > hi {
		panic(fmt.Sprintf("ir: variable %s has empty range [%d,%d]", name, lo, hi))
	}
	v := &IntVar{Name: name, Lo: lo, Hi: hi, ID: len(f.IntVars)}
	f.IntVars = append(f.IntVars, v)
	return v
}

// Bool declares a fresh Boolean variable.
func (f *Formula) Bool(name string) *BoolVar {
	v := &BoolVar{Name: name, ID: len(f.BoolVars)}
	f.BoolVars = append(f.BoolVars, v)
	return v
}

// Require asserts e; trivially-true constraints are dropped.
func (f *Formula) Require(e BoolExpr) {
	if c, ok := e.(*BoolConst); ok && c.Value {
		return
	}
	f.Asserts = append(f.Asserts, e)
}

// RequireLinear asserts Σ terms ≤ bound and returns the row, whose Guard
// the caller may set. Coefficients must be non-negative.
func (f *Formula) RequireLinear(terms []Term, bound int64) *Linear {
	for _, t := range terms {
		if t.Coef < 0 {
			panic(fmt.Sprintf("ir: negative coefficient %d on %s", t.Coef, t.Var.Name))
		}
	}
	row := &Linear{Terms: terms, Bound: bound}
	f.Linear = append(f.Linear, row)
	return row
}

// Assignment is a valuation of a formula's variables, used by the evaluator
// and by tests that cross-check the bit-blasted encoding.
type Assignment struct {
	Ints  map[*IntVar]int64
	Bools map[*BoolVar]bool
}

// NewAssignment returns an empty assignment.
func NewAssignment() *Assignment {
	return &Assignment{Ints: map[*IntVar]int64{}, Bools: map[*BoolVar]bool{}}
}

// EvalInt evaluates an integer expression under a.
func (a *Assignment) EvalInt(e IntExpr) int64 {
	switch x := e.(type) {
	case *IntConst:
		return x.Value
	case *IntVar:
		v, ok := a.Ints[x]
		if !ok {
			panic("ir: unassigned integer variable " + x.Name)
		}
		return v
	case *BinInt:
		av, bv := a.EvalInt(x.A), a.EvalInt(x.B)
		switch x.Op {
		case OpAdd:
			return av + bv
		case OpSub:
			return av - bv
		case OpMul:
			return av * bv
		}
	}
	panic("ir: unknown integer expression")
}

// EvalBool evaluates a Boolean expression under a.
func (a *Assignment) EvalBool(e BoolExpr) bool {
	switch x := e.(type) {
	case *BoolConst:
		return x.Value
	case *BoolVar:
		v, ok := a.Bools[x]
		if !ok {
			panic("ir: unassigned Boolean variable " + x.Name)
		}
		return v
	case *Not:
		return !a.EvalBool(x.A)
	case *Cmp:
		av, bv := a.EvalInt(x.A), a.EvalInt(x.B)
		switch x.Op {
		case OpLE:
			return av <= bv
		case OpLT:
			return av < bv
		case OpEQ:
			return av == bv
		case OpNE:
			return av != bv
		}
	case *BinBool:
		av, bv := a.EvalBool(x.A), a.EvalBool(x.B)
		switch x.Op {
		case OpAnd:
			return av && bv
		case OpOr:
			return av || bv
		case OpImply:
			return !av || bv
		case OpIff:
			return av == bv
		case OpXor:
			return av != bv
		}
	}
	panic("ir: unknown Boolean expression")
}

// Satisfied reports whether every asserted constraint holds under a, and in
// addition checks declared variable ranges.
func (f *Formula) Satisfied(a *Assignment) bool {
	for _, v := range f.IntVars {
		if val, ok := a.Ints[v]; ok && (val < v.Lo || val > v.Hi) {
			return false
		}
	}
	for _, e := range f.Asserts {
		if !a.EvalBool(e) {
			return false
		}
	}
	for _, row := range f.Linear {
		if row.Guard != nil && !a.EvalBool(row.Guard) {
			continue
		}
		var sum int64
		for _, t := range row.Terms {
			if a.EvalBool(t.Var) {
				sum += t.Coef
			}
		}
		if sum > row.Bound {
			return false
		}
	}
	return true
}
