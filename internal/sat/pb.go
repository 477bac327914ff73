package sat

import (
	"cmp"
	"slices"
)

// PBTerm is one weighted literal of a pseudo-Boolean constraint.
type PBTerm struct {
	Coef int64
	Lit  Lit
}

// PB constraints live in a flat store addressed by 32-bit ids, the way
// clauses live in the arena. A stored constraint is normalized:
//
//	Σ coef_i · lit_i ≥ bound
//
// with every coef_i > 0. The solver uses counter-based propagation: the
// constraint's slack is the sum of coefficients of non-false literals
// minus the bound. slack < 0 means the constraint is violated; any
// unassigned literal whose coefficient exceeds slack must be set true.
//
// Terms are kept sorted by descending coefficient so propagation can stop
// scanning as soon as coefficients drop to ≤ slack.

// pbID addresses a constraint in the solver's pbStore.
type pbID uint32

// nilPB is the zero pbID; slot 0 of the store is a sentinel, so it never
// addresses a constraint.
const nilPB pbID = 0

// pbHeader locates one constraint's terms in pbStore.terms.
type pbHeader struct {
	start, n uint32
	bound    int64
}

// pbStore holds every PB constraint of one solver: headers and slacks
// indexed by pbID, and all terms back to back in one slice. Nothing in it
// is a pointer, so a clone copies it with three slice copies.
type pbStore struct {
	hdr   []pbHeader
	terms []PBTerm
	slack []int64 // maintained incrementally under assignment
}

func newPBStore() pbStore {
	return pbStore{hdr: make([]pbHeader, 1), slack: make([]int64, 1)}
}

// count returns the number of stored constraints.
func (ps *pbStore) count() int { return len(ps.hdr) - 1 }

// body returns the constraint's terms, sorted by descending coefficient.
// The slice aliases the store and must not be held across an add.
//
//satlint:hotpath alloc-free
func (ps *pbStore) body(id pbID) []PBTerm {
	h := ps.hdr[id]
	return ps.terms[h.start : h.start+h.n]
}

// falsify charges the falsification of the watched term to its
// constraint's slack and returns the new slack.
//
//satlint:hotpath alloc-free
func (ps *pbStore) falsify(w pbWatch) int64 {
	ps.slack[w.id] -= w.coef
	return ps.slack[w.id]
}

// restore undoes falsify when the watched term is unassigned again.
//
//satlint:hotpath alloc-free
func (ps *pbStore) restore(w pbWatch) { ps.slack[w.id] += w.coef }

// pbWatch is an entry in a literal's PB occurrence list: assigning the
// literal falsifies a term with coefficient coef of constraint id. The
// entry carries the coefficient so slack updates never touch the terms.
type pbWatch struct {
	coef int64
	id   pbID
}

// explainPB appends the clause implied by constraint id for lit (see
// Solver.explain). The implied clause is (lit ∨ ⋁ l_i) over the literals
// l_i of the constraint that were false when lit was propagated: if all of
// them stay false and lit is false too, the constraint cannot reach its
// bound. For conflicts (lit == LitUndef) every currently false literal
// participates.
func (s *Solver) explainPB(id pbID, lit Lit, pos int, out []Lit) []Lit {
	for _, t := range s.pb.body(id) {
		if t.Lit == lit {
			continue
		}
		if s.litValue(t.Lit) == LFalse && (lit == LitUndef || int(s.vars[t.Lit.Var()].pos) < pos) {
			out = append(out, t.Lit)
		}
	}
	if lit != LitUndef {
		out = append(out, lit)
	}
	return out
}

// normalizePB converts an arbitrary constraint Σ coef·lit ≥ bound (with
// possibly negative or duplicate coefficients) into the internal normal
// form: strictly positive coefficients over distinct variables, sorted by
// descending coefficient (ties in ascending variable order), with
// coefficients saturated at the bound. It also detects constraints that
// are trivially true or trivially false. The result is built in buf's
// storage, so it aliases buf.
func normalizePB(buf, terms []PBTerm, bound int64) (norm []PBTerm, nbound int64, alwaysTrue, alwaysFalse bool) {
	// Rewrite every term over its positive literal, coef·¬v = coef -
	// coef·v, then merge duplicate variables by summing.
	net := buf[:0]
	for _, t := range terms {
		if t.Coef == 0 {
			continue
		}
		v := t.Lit.Var()
		if t.Lit.Sign() {
			bound -= t.Coef
			net = append(net, PBTerm{Coef: -t.Coef, Lit: PosLit(v)})
		} else {
			net = append(net, PBTerm{Coef: t.Coef, Lit: PosLit(v)})
		}
	}
	slices.SortFunc(net, func(a, b PBTerm) int { return cmp.Compare(a.Lit, b.Lit) })
	var maxSum int64
	norm = net[:0]
	for i := 0; i < len(net); {
		l, c := net[i].Lit, int64(0)
		for ; i < len(net) && net[i].Lit == l; i++ {
			c += net[i].Coef
		}
		switch {
		case c > 0:
			norm = append(norm, PBTerm{Coef: c, Lit: l})
			maxSum += c
		case c < 0:
			// c·v = -c·¬v + c
			bound -= c
			norm = append(norm, PBTerm{Coef: -c, Lit: l.Not()})
			maxSum += -c
		}
	}
	if bound <= 0 {
		return norm[:0], 0, true, false
	}
	if maxSum < bound {
		return norm[:0], 0, false, true
	}
	// Coefficient saturation: a coefficient above the bound acts like the
	// bound itself.
	for i := range norm {
		if norm[i].Coef > bound {
			norm[i].Coef = bound
		}
	}
	slices.SortStableFunc(norm, func(a, b PBTerm) int { return cmp.Compare(b.Coef, a.Coef) })
	return norm, bound, false, false
}
