package ir

import (
	"fmt"
	"strconv"
)

// This file implements §5.1 of the paper: the rewriting of an arbitrary
// Boolean combination of integer (in)equations into "triplet form" — an
// equisatisfiable conjunction of definitions that each comprise at most
// three variables, at most one arithmetic operator, and exactly one
// relational operator (transformations (15)–(18) of the paper, in the style
// of Tseitin's CNF transformation).

// Atom is either an integer constant or a reference to a triplet-level
// integer variable.
type Atom struct {
	IsConst bool
	Const   int64
	Var     int // triplet integer variable index when !IsConst
}

// ConstAtom returns a constant atom.
func ConstAtom(v int64) Atom { return Atom{IsConst: true, Const: v} }

// VarAtom returns a variable atom.
func VarAtom(id int) Atom { return Atom{Var: id} }

func (a Atom) String() string {
	if a.IsConst {
		return fmt.Sprintf("%d", a.Const)
	}
	return fmt.Sprintf("i%d", a.Var)
}

// BLit is a possibly-negated reference to a triplet-level Boolean variable.
type BLit struct {
	Var int
	Neg bool
}

// Not returns the complement of l.
func (l BLit) Not() BLit { return BLit{Var: l.Var, Neg: !l.Neg} }

func (l BLit) String() string {
	if l.Neg {
		return fmt.Sprintf("¬b%d", l.Var)
	}
	return fmt.Sprintf("b%d", l.Var)
}

// IntInfo describes one triplet-level integer variable.
type IntInfo struct {
	Name   string
	Lo, Hi int64
}

// IntDef is the arithmetic triplet  res = A op B  (transformation (17)).
type IntDef struct {
	Res  int // triplet integer variable index
	Op   IntOp
	A, B Atom
}

// CmpDef is the relational triplet  P ⇔ (A op B)  (transformation (16)).
type CmpDef struct {
	P    int // triplet Boolean variable index
	Op   CmpOp
	A, B Atom
}

// Gate is the Boolean triplet  P ⇔ (Q op R)  (transformation (15)).
type Gate struct {
	P    int
	Op   BoolOp
	Q, R BLit
}

// WLit is one weighted literal of a LinDef.
type WLit struct {
	Coef int64
	Lit  BLit
}

// LinDef is a Formula.Linear row over triplet Booleans,
// Σ Coef·Lit ≤ Bound; when Guarded, it holds only while Guard is true.
type LinDef struct {
	Terms   []WLit
	Bound   int64
	Guard   BLit
	Guarded bool
}

// Triplets is the result of the triplet transformation: flat variable
// tables, definition lists, the root literals asserted true, and the
// linear rows passed through untouched.
type Triplets struct {
	Ints      []IntInfo
	BoolNames []string
	IntDefs   []IntDef
	CmpDefs   []CmpDef
	Gates     []Gate
	Roots     []BLit
	Linear    []LinDef
	// Unsat is set when an asserted constraint folded to the constant
	// false, making the whole formula trivially unsatisfiable.
	Unsat bool

	// SourceInt maps formula integer-variable IDs to triplet IDs, and
	// SourceBool likewise for Booleans, so models can be projected back to
	// the original variables (the paper's "projection to the variables
	// stemming from the original formula").
	SourceInt  []int
	SourceBool []int
}

// Structural dedup keys of the three triplet kinds. The operands of a
// commutative operator are stored in canonical order (see atomLess and
// blitLess), so a+b and b+a share one key.
type (
	intKey struct {
		op   IntOp
		a, b Atom
	}
	cmpKey struct {
		op   CmpOp
		a, b Atom
	}
	gateKey struct {
		op   BoolOp
		q, r BLit
	}
)

// atomLess is a total order on atoms: constants before variables, then by
// value or index.
func atomLess(x, y Atom) bool {
	if x.IsConst != y.IsConst {
		return x.IsConst
	}
	if x.IsConst {
		return x.Const < y.Const
	}
	return x.Var < y.Var
}

// blitLess is a total order on Boolean literals: by variable, positive
// before negated.
func blitLess(x, y BLit) bool {
	if x.Var != y.Var {
		return x.Var < y.Var
	}
	return !x.Neg && y.Neg
}

type tripletizer struct {
	f   *Formula
	out *Triplets

	intMemo  map[IntExpr]Atom
	boolMemo map[BoolExpr]BLit
	intKey   map[intKey]Atom // structural dedup of arithmetic triplets
	cmpKey   map[cmpKey]BLit
	gateKey  map[gateKey]BLit
}

// ToTriplets rewrites the formula into triplet form.
func ToTriplets(f *Formula) *Triplets {
	tr := &tripletizer{
		f:        f,
		out:      &Triplets{},
		intMemo:  map[IntExpr]Atom{},
		boolMemo: map[BoolExpr]BLit{},
		intKey:   map[intKey]Atom{},
		cmpKey:   map[cmpKey]BLit{},
		gateKey:  map[gateKey]BLit{},
	}
	for _, v := range f.IntVars {
		id := tr.newInt(v.Name, v.Lo, v.Hi)
		tr.out.SourceInt = append(tr.out.SourceInt, id)
		tr.intMemo[v] = VarAtom(id)
	}
	for _, v := range f.BoolVars {
		id := tr.newBool(v.Name)
		tr.out.SourceBool = append(tr.out.SourceBool, id)
		tr.boolMemo[v] = BLit{Var: id}
	}
	for _, e := range f.Asserts {
		if c, ok := e.(*BoolConst); ok {
			if !c.Value {
				tr.out.Unsat = true
			}
			continue
		}
		tr.out.Roots = append(tr.out.Roots, tr.boolE(e))
	}
	for _, row := range f.Linear {
		d := LinDef{Bound: row.Bound, Terms: make([]WLit, len(row.Terms))}
		for i, t := range row.Terms {
			d.Terms[i] = WLit{Coef: t.Coef, Lit: tr.boolE(t.Var)}
		}
		if row.Guard != nil {
			d.Guard, d.Guarded = tr.boolE(row.Guard), true
		}
		tr.out.Linear = append(tr.out.Linear, d)
	}
	return tr.out
}

func (tr *tripletizer) newInt(name string, lo, hi int64) int {
	tr.out.Ints = append(tr.out.Ints, IntInfo{Name: name, Lo: lo, Hi: hi})
	return len(tr.out.Ints) - 1
}

func (tr *tripletizer) newBool(name string) int {
	tr.out.BoolNames = append(tr.out.BoolNames, name)
	return len(tr.out.BoolNames) - 1
}

func (tr *tripletizer) intE(e IntExpr) Atom {
	if a, ok := tr.intMemo[e]; ok {
		return a
	}
	var a Atom
	switch x := e.(type) {
	case *IntConst:
		a = ConstAtom(x.Value)
	case *IntVar:
		panic("ir: integer variable not declared on the transformed formula: " + x.Name)
	case *BinInt:
		opA := tr.intE(x.A)
		opB := tr.intE(x.B)
		key := intKey{x.Op, opA, opB}
		if x.Op != OpSub && atomLess(opB, opA) { // + and * are commutative
			key.a, key.b = opB, opA
		}
		if prev, ok := tr.intKey[key]; ok {
			a = prev
			break
		}
		lo, hi := x.Range()
		res := tr.newInt("t"+strconv.Itoa(len(tr.out.Ints)), lo, hi)
		tr.out.IntDefs = append(tr.out.IntDefs, IntDef{Res: res, Op: x.Op, A: opA, B: opB})
		a = VarAtom(res)
		tr.intKey[key] = a
	default:
		panic("ir: unknown integer expression")
	}
	tr.intMemo[e] = a
	return a
}

func (tr *tripletizer) boolE(e BoolExpr) BLit {
	if l, ok := tr.boolMemo[e]; ok {
		return l
	}
	var l BLit
	switch x := e.(type) {
	case *BoolConst:
		// Constants are folded by the constructors; a residual constant can
		// only come from a hand-built tree. Introduce a variable pinned
		// true at the root and return it with matching polarity.
		id := tr.newBool("const")
		tr.out.Roots = append(tr.out.Roots, BLit{Var: id})
		l = BLit{Var: id, Neg: !x.Value}
	case *BoolVar:
		panic("ir: Boolean variable not declared on the transformed formula: " + x.Name)
	case *Not:
		l = tr.boolE(x.A).Not()
	case *Cmp:
		a := tr.intE(x.A)
		b := tr.intE(x.B)
		key := cmpKey{x.Op, a, b}
		if prev, ok := tr.cmpKey[key]; ok {
			l = prev
			break
		}
		p := tr.newBool("c" + strconv.Itoa(len(tr.out.BoolNames)))
		tr.out.CmpDefs = append(tr.out.CmpDefs, CmpDef{P: p, Op: x.Op, A: a, B: b})
		l = BLit{Var: p}
		tr.cmpKey[key] = l
	case *BinBool:
		q := tr.boolE(x.A)
		r := tr.boolE(x.B)
		key := gateKey{x.Op, q, r}
		commutes := x.Op == OpAnd || x.Op == OpOr || x.Op == OpIff || x.Op == OpXor
		if commutes && blitLess(r, q) {
			key.q, key.r = r, q
		}
		if prev, ok := tr.gateKey[key]; ok {
			l = prev
			break
		}
		p := tr.newBool("g" + strconv.Itoa(len(tr.out.BoolNames)))
		tr.out.Gates = append(tr.out.Gates, Gate{P: p, Op: x.Op, Q: q, R: r})
		l = BLit{Var: p}
		tr.gateKey[key] = l
	default:
		panic("ir: unknown Boolean expression")
	}
	tr.boolMemo[e] = l
	return l
}

// Stats summarizes the size of a triplet system.
func (t *Triplets) Stats() string {
	return fmt.Sprintf("ints=%d bools=%d intdefs=%d cmps=%d gates=%d roots=%d linear=%d",
		len(t.Ints), len(t.BoolNames), len(t.IntDefs), len(t.CmpDefs), len(t.Gates), len(t.Roots), len(t.Linear))
}
