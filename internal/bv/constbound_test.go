package bv

import (
	"fmt"
	"testing"

	"satalloc/internal/ir"
	"satalloc/internal/sat"
)

// bitFree, bitTrue and bitFalse describe one bit of a test vector: a fresh
// variable, or a literal the blaster fixed to a constant.
const (
	bitFree = iota
	bitTrue
	bitFalse
)

// constBoundVec loads a fresh solver with a blaster whose only integer is
// a signed vector with the given bits.
func constBoundVec(t *testing.T, bits []int) (*Blaster, []sat.Lit) {
	t.Helper()
	s := sat.New()
	b := &Blaster{S: s, cmpConstMemo: map[cmpConstKey]sat.Lit{}, cache: map[gateKey]sat.Lit{}}
	b.out = sat.NewBatch(s)
	b.lTrue = b.newLit()
	b.out.AddClause(b.lTrue)
	vec := make([]sat.Lit, len(bits))
	for i, kind := range bits {
		switch kind {
		case bitFree:
			vec[i] = b.newLit()
		case bitTrue:
			vec[i] = b.lTrue
		case bitFalse:
			vec[i] = b.lTrue.Not()
		}
	}
	b.vecs = [][]sat.Lit{vec}
	if err := b.load(); err != nil {
		t.Fatal(err)
	}
	return b, vec
}

// TestConstBoundMatchesEnumeration checks the PB rows of constant bounds
// against enumeration. For every width 1–6, vectors of free bits and
// vectors with bits fixed to constants, every k from two below the range
// to two above it, and both directions, the set of values the solver
// admits must equal the enumerated set: for the unguarded row
// rangeAsserts adds, and for CmpConstLit's selector assumed true (the
// relation) and false (its complement). A selector whose relation holds
// for every value of the vector, or for none, must be the constant
// literal.
func TestConstBoundMatchesEnumeration(t *testing.T) {
	for w := 1; w <= 6; w++ {
		patterns := [][]int{make([]int, w)}
		if w >= 2 {
			low := make([]int, w)
			low[0] = bitTrue
			sign := make([]int, w)
			sign[w-1] = bitFalse
			mixed := make([]int, w)
			mixed[w-1], mixed[0] = bitTrue, bitFalse
			patterns = append(patterns, low, sign, mixed)
		}
		min := int64(-1) << (w - 1)
		max := -min - 1
		for _, bits := range patterns {
			// The values the fixed bits leave representable.
			var values []int64
			for v := min; v <= max; v++ {
				ok := true
				for i, kind := range bits {
					if bit := v>>i&1 == 1; kind == bitTrue && !bit || kind == bitFalse && bit {
						ok = false
					}
				}
				if ok {
					values = append(values, v)
				}
			}
			for k := min - 2; k <= max+2; k++ {
				for _, le := range []bool{true, false} {
					holds := func(v int64) bool {
						if le {
							return v <= k
						}
						return v >= k
					}
					name := fmt.Sprintf("w%d/%v/k%d/le=%v", w, bits, k, le)
					checkConstBound(t, name+"/row", bits, values, holds, func(b *Blaster, vec []sat.Lit) []sat.Lit {
						info := ir.IntInfo{Lo: min, Hi: k}
						if !le {
							info = ir.IntInfo{Lo: k, Hi: max}
						}
						b.out = sat.NewBatch(b.S)
						b.rangeAsserts(vec, info)
						if err := b.load(); err != nil {
							t.Fatal(err)
						}
						return nil
					})
					for _, pol := range []bool{true, false} {
						want := func(v int64) bool { return holds(v) == pol }
						checkConstBound(t, fmt.Sprintf("%s/selector=%v", name, pol), bits, values, want, func(b *Blaster, vec []sat.Lit) []sat.Lit {
							l, err := b.CmpConstLit(0, k, le)
							if err != nil {
								t.Fatal(err)
							}
							all, none := true, true
							for _, v := range values {
								all = all && holds(v)
								none = none && !holds(v)
							}
							switch {
							case all && l != b.lTrue, none && l != b.lTrue.Not():
								t.Errorf("%s: selector %v does not fold (all=%v none=%v)", name, l, all, none)
							case !all && !none && l.Var() == b.lTrue.Var():
								t.Errorf("%s: selector folded to a constant", name)
							}
							if !pol {
								l = l.Not()
							}
							return []sat.Lit{l}
						})
					}
				}
			}
		}
	}
}

// checkConstBound builds a vector with the given bits, lets add constrain
// it, and checks that exactly the representable values satisfying want
// admit a model under the assumptions add returns. Each value is tried by
// assuming its free bits, and a model must decode to that value.
func checkConstBound(t *testing.T, name string, bits []int, values []int64, want func(int64) bool,
	add func(*Blaster, []sat.Lit) []sat.Lit) {
	t.Helper()
	b, vec := constBoundVec(t, bits)
	assume := add(b, vec)
	for _, v := range values {
		as := append([]sat.Lit(nil), assume...)
		for i, kind := range bits {
			if kind != bitFree {
				continue
			}
			if v>>i&1 == 1 {
				as = append(as, vec[i])
			} else {
				as = append(as, vec[i].Not())
			}
		}
		got := b.S.Solve(as...) == sat.Sat
		if got != want(v) {
			t.Fatalf("%s: v=%d admits a model: %v, want %v", name, v, got, want(v))
		}
		if got && b.IntValue(0) != v {
			t.Fatalf("%s: model decodes to %d, want %d", name, b.IntValue(0), v)
		}
	}
}
