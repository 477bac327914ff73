// Package ir defines the integer-constraint intermediate representation of
// the allocator: Boolean combinations of (in)equations over bounded integer
// variables, exactly the formula class that the encoding of Metzner et al.
// (IPDPS 2006, §3–4) produces.
//
// The package also implements the paper's §5.1 "rewriting to triplet form":
// a Tseitin-style transformation that introduces auxiliary integer and
// Boolean variables so that every remaining constraint mentions at most
// three variables, one arithmetic operator, and one relational operator.
// Interval ranges for the auxiliary integer variables are inferred from the
// operand ranges, which later lets the bit-blaster pick minimal
// 2's-complement widths. Weighted sums of Booleans bounded by a constant
// (Formula.RequireLinear) bypass the rewriting: they pass through to the
// bit-blaster as linear rows.
package ir

import "fmt"

// IntOp is a binary arithmetic operator.
type IntOp int

// Arithmetic operators.
const (
	OpAdd IntOp = iota
	OpSub
	OpMul
)

func (op IntOp) String() string {
	switch op {
	case OpAdd:
		return "+"
	case OpSub:
		return "-"
	case OpMul:
		return "*"
	}
	return "?"
}

// CmpOp is a relational operator.
type CmpOp int

// Relational operators.
const (
	OpLE CmpOp = iota
	OpLT
	OpEQ
	OpNE
)

func (op CmpOp) String() string {
	switch op {
	case OpLE:
		return "<="
	case OpLT:
		return "<"
	case OpEQ:
		return "=="
	case OpNE:
		return "!="
	}
	return "?"
}

// BoolOp is a binary Boolean connective.
type BoolOp int

// Boolean connectives.
const (
	OpAnd BoolOp = iota
	OpOr
	OpImply
	OpIff
	OpXor
)

func (op BoolOp) String() string {
	switch op {
	case OpAnd:
		return "and"
	case OpOr:
		return "or"
	case OpImply:
		return "->"
	case OpIff:
		return "<->"
	case OpXor:
		return "xor"
	}
	return "?"
}

// IntExpr is an integer-valued expression.
type IntExpr interface {
	isInt()
	// Range returns a sound enclosure of the expression's value.
	Range() (lo, hi int64)
	String() string
}

// BoolExpr is a Boolean-valued expression.
type BoolExpr interface {
	isBool()
	String() string
}

// IntVar is a bounded integer decision variable.
type IntVar struct {
	Name   string
	Lo, Hi int64
	ID     int // index into the owning Formula's integer variable table
}

func (*IntVar) isInt() {}

// Range returns the declared bounds.
func (v *IntVar) Range() (int64, int64) { return v.Lo, v.Hi }

func (v *IntVar) String() string { return v.Name }

// IntConst is an integer literal.
type IntConst struct{ Value int64 }

func (*IntConst) isInt() {}

// Range returns the singleton interval.
func (c *IntConst) Range() (int64, int64) { return c.Value, c.Value }

func (c *IntConst) String() string { return fmt.Sprintf("%d", c.Value) }

// BinInt is a binary arithmetic expression.
type BinInt struct {
	Op   IntOp
	A, B IntExpr
}

func (*BinInt) isInt() {}

// Range computes the interval enclosure of the operation.
func (e *BinInt) Range() (int64, int64) {
	alo, ahi := e.A.Range()
	blo, bhi := e.B.Range()
	switch e.Op {
	case OpAdd:
		return alo + blo, ahi + bhi
	case OpSub:
		return alo - bhi, ahi - blo
	case OpMul:
		p := [4]int64{alo * blo, alo * bhi, ahi * blo, ahi * bhi}
		lo, hi := p[0], p[0]
		for _, v := range p[1:] {
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		return lo, hi
	}
	panic("ir: unknown IntOp")
}

func (e *BinInt) String() string {
	return fmt.Sprintf("(%s %s %s)", e.A, e.Op, e.B)
}

// Cmp is a relational constraint over two integer expressions.
type Cmp struct {
	Op   CmpOp
	A, B IntExpr
}

func (*Cmp) isBool() {}

func (e *Cmp) String() string {
	return fmt.Sprintf("(%s %s %s)", e.A, e.Op, e.B)
}

// BoolVar is a Boolean decision variable.
type BoolVar struct {
	Name string
	ID   int
}

func (*BoolVar) isBool() {}

func (v *BoolVar) String() string { return v.Name }

// BoolConst is a Boolean literal constant.
type BoolConst struct{ Value bool }

func (*BoolConst) isBool() {}

func (c *BoolConst) String() string { return fmt.Sprintf("%t", c.Value) }

// Not is Boolean negation.
type Not struct{ A BoolExpr }

func (*Not) isBool() {}

func (e *Not) String() string { return fmt.Sprintf("(not %s)", e.A) }

// BinBool is a binary Boolean connective.
type BinBool struct {
	Op   BoolOp
	A, B BoolExpr
}

func (*BinBool) isBool() {}

func (e *BinBool) String() string {
	return fmt.Sprintf("(%s %s %s)", e.A, e.Op, e.B)
}

// --- constructors ---

// Const returns an integer constant expression.
func Const(v int64) IntExpr { return &IntConst{Value: v} }

// Add returns a + b, folding constants.
func Add(a, b IntExpr) IntExpr {
	if ca, ok := a.(*IntConst); ok {
		if cb, ok := b.(*IntConst); ok {
			return Const(ca.Value + cb.Value)
		}
		if ca.Value == 0 {
			return b
		}
	}
	if cb, ok := b.(*IntConst); ok && cb.Value == 0 {
		return a
	}
	return &BinInt{Op: OpAdd, A: a, B: b}
}

// Sub returns a - b, folding constants.
func Sub(a, b IntExpr) IntExpr {
	if ca, ok := a.(*IntConst); ok {
		if cb, ok := b.(*IntConst); ok {
			return Const(ca.Value - cb.Value)
		}
	}
	if cb, ok := b.(*IntConst); ok && cb.Value == 0 {
		return a
	}
	return &BinInt{Op: OpSub, A: a, B: b}
}

// Mul returns a * b, folding constants and units.
func Mul(a, b IntExpr) IntExpr {
	if ca, ok := a.(*IntConst); ok {
		if cb, ok := b.(*IntConst); ok {
			return Const(ca.Value * cb.Value)
		}
		switch ca.Value {
		case 0:
			return Const(0)
		case 1:
			return b
		}
	}
	if cb, ok := b.(*IntConst); ok {
		switch cb.Value {
		case 0:
			return Const(0)
		case 1:
			return a
		}
	}
	return &BinInt{Op: OpMul, A: a, B: b}
}

// Sum folds a list of integer expressions into a balanced addition tree;
// the empty sum is 0.
func Sum(xs ...IntExpr) IntExpr {
	switch len(xs) {
	case 0:
		return Const(0)
	case 1:
		return xs[0]
	}
	mid := len(xs) / 2
	return Add(Sum(xs[:mid]...), Sum(xs[mid:]...))
}

// Le returns a ≤ b.
func Le(a, b IntExpr) BoolExpr { return foldCmp(&Cmp{Op: OpLE, A: a, B: b}) }

// Lt returns a < b.
func Lt(a, b IntExpr) BoolExpr { return foldCmp(&Cmp{Op: OpLT, A: a, B: b}) }

// Ge returns a ≥ b.
func Ge(a, b IntExpr) BoolExpr { return Le(b, a) }

// Gt returns a > b.
func Gt(a, b IntExpr) BoolExpr { return Lt(b, a) }

// Eq returns a = b.
func Eq(a, b IntExpr) BoolExpr { return foldCmp(&Cmp{Op: OpEQ, A: a, B: b}) }

// Ne returns a ≠ b.
func Ne(a, b IntExpr) BoolExpr { return foldCmp(&Cmp{Op: OpNE, A: a, B: b}) }

// foldCmp resolves comparisons that are decidable from ranges alone.
func foldCmp(c *Cmp) BoolExpr {
	alo, ahi := c.A.Range()
	blo, bhi := c.B.Range()
	switch c.Op {
	case OpLE:
		if ahi <= blo {
			return True()
		}
		if alo > bhi {
			return False()
		}
	case OpLT:
		if ahi < blo {
			return True()
		}
		if alo >= bhi {
			return False()
		}
	case OpEQ:
		if alo == ahi && blo == bhi && alo == blo {
			return True()
		}
		if ahi < blo || bhi < alo {
			return False()
		}
	case OpNE:
		if ahi < blo || bhi < alo {
			return True()
		}
		if alo == ahi && blo == bhi && alo == blo {
			return False()
		}
	}
	return c
}

// True returns the Boolean constant true.
func True() BoolExpr { return &BoolConst{Value: true} }

// False returns the Boolean constant false.
func False() BoolExpr { return &BoolConst{Value: false} }

// NotE returns ¬a, folding constants and double negation.
func NotE(a BoolExpr) BoolExpr {
	switch x := a.(type) {
	case *BoolConst:
		return &BoolConst{Value: !x.Value}
	case *Not:
		return x.A
	}
	return &Not{A: a}
}

func binBool(op BoolOp, a, b BoolExpr) BoolExpr {
	ca, aConst := a.(*BoolConst)
	cb, bConst := b.(*BoolConst)
	if aConst && bConst {
		var v bool
		switch op {
		case OpAnd:
			v = ca.Value && cb.Value
		case OpOr:
			v = ca.Value || cb.Value
		case OpImply:
			v = !ca.Value || cb.Value
		case OpIff:
			v = ca.Value == cb.Value
		case OpXor:
			v = ca.Value != cb.Value
		}
		return &BoolConst{Value: v}
	}
	if aConst {
		switch op {
		case OpAnd:
			if ca.Value {
				return b
			}
			return False()
		case OpOr:
			if ca.Value {
				return True()
			}
			return b
		case OpImply:
			if ca.Value {
				return b
			}
			return True()
		case OpIff:
			if ca.Value {
				return b
			}
			return NotE(b)
		case OpXor:
			if ca.Value {
				return NotE(b)
			}
			return b
		}
	}
	if bConst {
		switch op {
		case OpAnd:
			if cb.Value {
				return a
			}
			return False()
		case OpOr:
			if cb.Value {
				return True()
			}
			return a
		case OpImply:
			if cb.Value {
				return True()
			}
			return NotE(a)
		case OpIff:
			if cb.Value {
				return a
			}
			return NotE(a)
		case OpXor:
			if cb.Value {
				return NotE(a)
			}
			return a
		}
	}
	return &BinBool{Op: op, A: a, B: b}
}

// And returns the conjunction of xs; the empty conjunction is true.
func And(xs ...BoolExpr) BoolExpr {
	switch len(xs) {
	case 0:
		return True()
	case 1:
		return xs[0]
	}
	mid := len(xs) / 2
	return binBool(OpAnd, And(xs[:mid]...), And(xs[mid:]...))
}

// Or returns the disjunction of xs; the empty disjunction is false.
func Or(xs ...BoolExpr) BoolExpr {
	switch len(xs) {
	case 0:
		return False()
	case 1:
		return xs[0]
	}
	mid := len(xs) / 2
	return binBool(OpOr, Or(xs[:mid]...), Or(xs[mid:]...))
}

// Imply returns a → b.
func Imply(a, b BoolExpr) BoolExpr { return binBool(OpImply, a, b) }

// Iff returns a ↔ b.
func Iff(a, b BoolExpr) BoolExpr { return binBool(OpIff, a, b) }

// Xor returns a ⊕ b.
func Xor(a, b BoolExpr) BoolExpr { return binBool(OpXor, a, b) }
