package bv

import (
	"testing"
	"testing/quick"

	"satalloc/internal/ir"
	"satalloc/internal/sat"
)

// Property: for arbitrary concrete operands, the bit-blasted circuits
// compute exact machine-integer arithmetic (the §5.1 claim that the
// 2's-complement axiomatization is faithful).
func TestCircuitArithmeticExactQuick(t *testing.T) {
	cfg := &quick.Config{MaxCount: 60} // each check compiles and solves
	err := quick.Check(func(x8, y8 int8) bool {
		xv, yv := int64(x8)%40, int64(y8)%40
		f := ir.NewFormula()
		x := f.Int("x", -40, 40)
		y := f.Int("y", -40, 40)
		sum := f.Int("s", -80, 80)
		diff := f.Int("d", -80, 80)
		prod := f.Int("p", -1600, 1600)
		f.Require(ir.Eq(x, ir.Const(xv)))
		f.Require(ir.Eq(y, ir.Const(yv)))
		f.Require(ir.Eq(sum, ir.Add(x, y)))
		f.Require(ir.Eq(diff, ir.Sub(x, y)))
		f.Require(ir.Eq(prod, ir.Mul(x, y)))
		sys, err := Compile(f)
		if err != nil {
			return false
		}
		if sys.Solve() != sat.Sat {
			return false
		}
		return sys.Int(sum) == xv+yv && sys.Int(diff) == xv-yv && sys.Int(prod) == xv*yv
	}, cfg)
	if err != nil {
		t.Fatal(err)
	}
}

// Property: constant multiplication agrees with the generic multiplier.
func TestConstMulAgreesWithVarMulQuick(t *testing.T) {
	cfg := &quick.Config{MaxCount: 40}
	err := quick.Check(func(x8 int8, c8 int8) bool {
		xv := int64(x8) % 30
		cv := int64(c8) % 12
		f := ir.NewFormula()
		x := f.Int("x", -30, 30)
		viaConst := f.Int("vc", -360, 360)
		viaVar := f.Int("vv", -360, 360)
		c := f.Int("c", -12, 12)
		f.Require(ir.Eq(x, ir.Const(xv)))
		f.Require(ir.Eq(c, ir.Const(cv)))
		f.Require(ir.Eq(viaConst, ir.Mul(x, ir.Const(cv)))) // const path
		f.Require(ir.Eq(viaVar, ir.Mul(x, c)))              // generic path
		sys, err := Compile(f)
		if err != nil {
			return false
		}
		if sys.Solve() != sat.Sat {
			return false
		}
		return sys.Int(viaConst) == xv*cv && sys.Int(viaVar) == xv*cv
	}, cfg)
	if err != nil {
		t.Fatal(err)
	}
}

// Property: comparison circuits agree with Go's comparison operators.
func TestComparatorsExactQuick(t *testing.T) {
	cfg := &quick.Config{MaxCount: 60}
	err := quick.Check(func(x8, y8 int8) bool {
		xv, yv := int64(x8)%50, int64(y8)%50
		f := ir.NewFormula()
		x := f.Int("x", -50, 50)
		y := f.Int("y", -50, 50)
		le := f.Bool("le")
		lt := f.Bool("lt")
		eq := f.Bool("eq")
		ne := f.Bool("ne")
		f.Require(ir.Eq(x, ir.Const(xv)))
		f.Require(ir.Eq(y, ir.Const(yv)))
		f.Require(ir.Iff(le, ir.Le(x, y)))
		f.Require(ir.Iff(lt, ir.Lt(x, y)))
		f.Require(ir.Iff(eq, ir.Eq(x, y)))
		f.Require(ir.Iff(ne, ir.Ne(x, y)))
		sys, err := Compile(f)
		if err != nil {
			return false
		}
		if sys.Solve() != sat.Sat {
			return false
		}
		return sys.Bool(le) == (xv <= yv) && sys.Bool(lt) == (xv < yv) &&
			sys.Bool(eq) == (xv == yv) && sys.Bool(ne) == (xv != yv)
	}, cfg)
	if err != nil {
		t.Fatal(err)
	}
}

// Property: widthFor always produces a width whose 2's-complement range
// encloses the requested interval, and the width is minimal.
func TestWidthForQuick(t *testing.T) {
	err := quick.Check(func(a, b int16) bool {
		lo, hi := int64(a), int64(b)
		if lo > hi {
			lo, hi = hi, lo
		}
		w := widthFor(lo, hi)
		min := int64(-1) << (w - 1)
		max := -min - 1
		if lo < min || hi > max {
			return false
		}
		if w > 1 {
			pmin := int64(-1) << (w - 2)
			pmax := -pmin - 1
			if lo >= pmin && hi <= pmax {
				return false // a narrower width would have sufficed
			}
		}
		return true
	}, &quick.Config{MaxCount: 2000})
	if err != nil {
		t.Fatal(err)
	}
}
