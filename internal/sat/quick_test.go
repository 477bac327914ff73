package sat

import (
	"testing"
	"testing/quick"
)

// Property: normalizePB preserves the constraint's semantics — for every
// assignment of the (few) variables involved, the normalized form holds
// exactly when the original does.
func TestNormalizePBEquivalenceQuick(t *testing.T) {
	type rawTerm struct {
		Coef int8
		Var  uint8
		Neg  bool
	}
	cfg := &quick.Config{MaxCount: 800}
	err := quick.Check(func(raw [4]rawTerm, bound int8) bool {
		const nVars = 3
		terms := make([]PBTerm, 0, len(raw))
		for _, rt := range raw {
			v := Var(int(rt.Var)%nVars + 1)
			terms = append(terms, PBTerm{Coef: int64(rt.Coef), Lit: MkLit(v, rt.Neg)})
		}
		norm, nbound, alwaysTrue, alwaysFalse := normalizePB(nil, terms, int64(bound))

		eval := func(mask int, ts []PBTerm, b int64) bool {
			var sum int64
			for _, t := range ts {
				val := mask&(1<<(int(t.Lit.Var())-1)) != 0
				if t.Lit.Sign() {
					val = !val
				}
				if val {
					sum += t.Coef
				}
			}
			return sum >= b
		}
		for mask := 0; mask < 1<<nVars; mask++ {
			orig := eval(mask, terms, int64(bound))
			var got bool
			switch {
			case alwaysTrue:
				got = true
			case alwaysFalse:
				got = false
			default:
				got = eval(mask, norm, nbound)
			}
			if orig != got {
				return false
			}
		}
		return true
	}, cfg)
	if err != nil {
		t.Fatal(err)
	}
}

// Property: normalization produces strictly positive, bound-saturated
// coefficients sorted descending over distinct variables.
func TestNormalizePBShapeQuick(t *testing.T) {
	cfg := &quick.Config{MaxCount: 500}
	err := quick.Check(func(coefs [5]int8, signs [5]bool, bound int8) bool {
		terms := make([]PBTerm, 0, 5)
		for i, c := range coefs {
			v := Var(i%3 + 1)
			terms = append(terms, PBTerm{Coef: int64(c), Lit: MkLit(v, signs[i])})
		}
		norm, nbound, alwaysTrue, alwaysFalse := normalizePB(nil, terms, int64(bound))
		if alwaysTrue || alwaysFalse {
			return true
		}
		seen := map[Var]bool{}
		prev := int64(1 << 62)
		for _, t := range norm {
			if t.Coef <= 0 || t.Coef > nbound {
				return false
			}
			if t.Coef > prev {
				return false // not sorted descending
			}
			prev = t.Coef
			if seen[t.Lit.Var()] {
				return false // duplicate variable survived
			}
			seen[t.Lit.Var()] = true
		}
		return nbound > 0
	}, cfg)
	if err != nil {
		t.Fatal(err)
	}
}

// Property: literal encoding round-trips for arbitrary variables and signs.
func TestLitRoundTripQuick(t *testing.T) {
	err := quick.Check(func(raw uint16, neg bool) bool {
		v := Var(raw%10000 + 1)
		l := MkLit(v, neg)
		return l.Var() == v && l.Sign() == neg && l.Not().Not() == l && l.Not().Sign() == !neg
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

// Property: the Luby sequence is positive and its partial structure holds:
// every power of two appears at positions 2^k - 1.
func TestLubyStructureQuick(t *testing.T) {
	err := quick.Check(func(raw uint8) bool {
		k := int64(raw%10) + 1
		return luby((1<<k)-1) == 1<<(k-1) && luby(int64(raw)+1) >= 1
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}
