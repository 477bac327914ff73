package bv

import (
	"satalloc/internal/ir"
	"satalloc/internal/sat"
)

// System bundles a formula with its triplet form, bit-blasted encoding and
// solver, giving callers a one-stop façade:
//
//	sys, _ := bv.Compile(f)
//	if sys.Solve() == sat.Sat {
//	    x := sys.Int(someVar)
//	}
type System struct {
	F  *ir.Formula
	Tr *ir.Triplets
	B  *Blaster
	S  *sat.Solver
}

// Compile transforms and bit-blasts f into a fresh solver.
func Compile(f *ir.Formula) (*System, error) {
	return CompileIntoWith(sat.New(), f, Options{})
}

// CompileIntoWith transforms and bit-blasts f into an existing solver,
// which may already hold constraints (it must be at decision level 0).
func CompileIntoWith(s *sat.Solver, f *ir.Formula, opts Options) (*System, error) {
	tsp := opts.Trace.Child("Triplet")
	tr := ir.ToTriplets(f)
	tsp.Attr("int_defs", len(tr.IntDefs)).Attr("cmp_defs", len(tr.CmpDefs)).
		Attr("gates", len(tr.Gates)).End()
	b, err := BlastWith(s, tr, opts)
	if err != nil {
		return nil, err
	}
	return &System{F: f, Tr: tr, B: b, S: s}, nil
}

// Solve runs the SAT solver, optionally under assumption literals.
func (sys *System) Solve(assumptions ...sat.Lit) sat.Status {
	return sys.S.Solve(assumptions...)
}

// Int decodes the model value of a source-level integer variable.
func (sys *System) Int(v *ir.IntVar) int64 {
	return sys.B.IntValue(sys.Tr.SourceInt[v.ID])
}

// Bool decodes the model value of a source-level Boolean variable.
func (sys *System) Bool(v *ir.BoolVar) bool {
	return sys.B.BoolValue(sys.Tr.SourceBool[v.ID])
}

// Model extracts the full source-level assignment from the last model.
func (sys *System) Model() *ir.Assignment {
	a := ir.NewAssignment()
	for _, v := range sys.F.IntVars {
		a.Ints[v] = sys.Int(v)
	}
	for _, v := range sys.F.BoolVars {
		a.Bools[v] = sys.Bool(v)
	}
	return a
}

// UpperBoundLit returns an assumption literal ⇔ (v ≤ k).
func (sys *System) UpperBoundLit(v *ir.IntVar, k int64) (sat.Lit, error) {
	return sys.B.CmpConstLit(sys.Tr.SourceInt[v.ID], k, true)
}

// LowerBoundLit returns an assumption literal ⇔ (v ≥ k).
func (sys *System) LowerBoundLit(v *ir.IntVar, k int64) (sat.Lit, error) {
	return sys.B.CmpConstLit(sys.Tr.SourceInt[v.ID], k, false)
}

// AssertLowerBound permanently adds v ≥ k (used for the monotone side of
// the binary search window, which is entailed and therefore safe to keep).
func (sys *System) AssertLowerBound(v *ir.IntVar, k int64) error {
	l, err := sys.LowerBoundLit(v, k)
	if err != nil {
		return err
	}
	return sys.S.AddClause(l)
}

// AssignmentLits returns the solver literals that spell out a partial
// source-level assignment: one per Boolean variable a assigns, and one per
// bit of each integer variable it assigns, in the formula's declaration
// order (Booleans first), so the result never depends on map order. Bits
// the bit-blaster folded to constants are skipped, as are integer values
// outside the variable's declared range. The optimizer's warm start hands
// these to sat.Solver.Hint.
func (sys *System) AssignmentLits(a *ir.Assignment) []sat.Lit {
	if sys.Tr.Unsat {
		return nil
	}
	b := sys.B
	var out []sat.Lit
	add := func(l sat.Lit, val bool) {
		if l.Var() == b.lTrue.Var() {
			return
		}
		if !val {
			l = l.Not()
		}
		out = append(out, l)
	}
	for _, v := range sys.F.BoolVars {
		if val, ok := a.Bools[v]; ok {
			add(b.bools[sys.Tr.SourceBool[v.ID]], val)
		}
	}
	for _, v := range sys.F.IntVars {
		val, ok := a.Ints[v]
		if !ok || val < v.Lo || val > v.Hi {
			continue
		}
		for i, l := range b.vecs[sys.Tr.SourceInt[v.ID]] {
			add(l, val>>i&1 == 1)
		}
	}
	return out
}

// BoolSolverVar returns the solver variable carrying a source-level
// Boolean variable, for callers that need to project models (e.g. AllSAT
// enumeration over the placement variables).
func (sys *System) BoolSolverVar(v *ir.BoolVar) sat.Var {
	return sys.B.BoolVar(sys.Tr.SourceBool[v.ID])
}
