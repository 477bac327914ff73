// Package bv bit-blasts triplet-form integer constraint systems into the
// clause/pseudo-Boolean language of the SAT solver, implementing §5.1 of
// Metzner et al. (IPDPS 2006): integer variables become 2's-complement
// bit vectors of logarithmic size, arithmetic triplets become adder and
// multiplier circuits (the carry of the full adder is axiomatized with the
// paper's pair of pseudo-Boolean constraints, eq. 19), and relational
// triplets become comparator circuits. Linear rows over Booleans skip the
// circuits: each becomes one pseudo-Boolean constraint. So do constant
// bounds on one integer (the range asserts and the optimizer's
// CmpConstLit probes): each side is one binary-weighted PB row over the
// integer's bits (boundRow), with no carry chain.
//
// The blaster structurally hashes the circuit (hash.go): every gate goes
// through a canonicalizing cache, constants fold before emission, and
// defined variables alias their circuit's output wires, so shared
// subterms reach the solver once (see DESIGN.md §14 and EncodeStats).
package bv

import (
	"fmt"

	"satalloc/internal/ir"
	"satalloc/internal/obs"
	"satalloc/internal/sat"
)

// Options carries what a caller adds to an encoding run; the formula
// itself depends on nothing but the triplets.
type Options struct {
	// Trace, when set, is the parent span under which Compile records its
	// Triplet phase and BlastWith its BitBlast phase. Nil disables
	// tracing.
	Trace *obs.Span
}

// Blaster holds the correspondence between triplet-level variables and
// solver literals and knows how to decode models.
//
// The blaster never calls the solver while it builds a circuit: it
// records every variable, clause and PB constraint in a sat.Batch and
// hands the whole batch to sat.Solver.Load once the circuit is complete —
// at the end of BlastWith for the formula, and at the end of each
// CmpConstLit call for a probe's selector and rows. The batch is dropped
// right after its Load, so it never outlives the call that built it.
type Blaster struct {
	S  *sat.Solver
	Tr *ir.Triplets

	out *sat.Batch // pending emission; nil between calls

	vecs  [][]sat.Lit // per triplet integer variable, little-endian signed
	bools []sat.Lit   // per triplet Boolean variable
	lTrue sat.Lit     // literal fixed true

	cmpConstMemo map[cmpConstKey]sat.Lit

	// Structural-hashing state: the gate cache and its accounting.
	cache map[gateKey]sat.Lit
	stats EncodeStats
}

// widthFor returns the number of bits of a signed 2's-complement vector
// able to represent every value in [lo, hi].
func widthFor(lo, hi int64) int {
	w := 1
	for ; w < 63; w++ {
		min := int64(-1) << (w - 1)
		max := -min - 1
		if lo >= min && hi <= max {
			return w
		}
	}
	panic(fmt.Sprintf("bv: range [%d,%d] too wide", lo, hi))
}

// BlastWith encodes the triplet system into the solver. The solver may
// already contain other constraints; fresh variables are allocated as
// needed. It records the BitBlast span under opts.Trace: the solver's
// size after the load and the gate accounting of the pass.
func BlastWith(s *sat.Solver, tr *ir.Triplets, opts Options) (*Blaster, error) {
	sp := opts.Trace.Child("BitBlast")
	b := &Blaster{S: s, Tr: tr, cmpConstMemo: map[cmpConstKey]sat.Lit{}, cache: map[gateKey]sat.Lit{}}
	if err := b.blastAll(); err != nil {
		sp.Attr("error", err.Error()).End()
		return b, err
	}
	st := b.stats
	sp.Attr("vars", s.NumVariables()).Attr("clauses", s.Stats.NumClauses).
		Attr("pb", s.Stats.NumPB).Attr("literals", s.Stats.NumLiterals).
		Attr("gates_requested", st.GatesRequested).
		Attr("gates_emitted", st.GatesEmitted).
		Attr("gates_folded", st.GatesFolded).
		Attr("gates_reused", st.GatesReused()).End()
	return b, nil
}

// blastAll records the whole formula in a batch and loads it.
func (b *Blaster) blastAll() error {
	b.out = sat.NewBatch(b.S)
	if b.Tr.Unsat {
		b.out.AddClause()
		return b.load()
	}
	b.lTrue = b.newLit()
	b.out.AddClause(b.lTrue)
	if err := b.blast(); err != nil {
		b.out = nil
		return err
	}
	return b.load()
}

// load hands the pending batch to the solver and drops it.
func (b *Blaster) load() error {
	err := b.S.Load(b.out)
	b.out = nil
	return err
}

// newLit records a fresh variable and returns its positive literal.
func (b *Blaster) newLit() sat.Lit { return sat.PosLit(b.out.NewVar()) }

// blastLinear emits every linear row Σ c·x ≤ k as one PB constraint over
// the complemented literals, Σ c·¬x ≥ W − k with W = Σ c, so the solver's
// counter propagation refutes an overfull row without auxiliary
// variables. A guarded row adds the big-M term (W − k)·¬g, which meets the
// bound by itself whenever the guard g is false. A row with W ≤ k
// normalizes away in AddPB.
func (b *Blaster) blastLinear() {
	var terms []sat.PBTerm
	for _, row := range b.Tr.Linear {
		terms = terms[:0]
		var sum int64
		for _, t := range row.Terms {
			terms = append(terms, sat.PBTerm{Coef: t.Coef, Lit: b.blit(t.Lit).Not()})
			sum += t.Coef
		}
		rhs := sum - row.Bound
		if row.Guarded {
			terms = append(terms, sat.PBTerm{Coef: rhs, Lit: b.blit(row.Guard).Not()})
		}
		b.out.AddPB(terms, rhs)
	}
}

func (b *Blaster) blit(l ir.BLit) sat.Lit {
	if l.Neg {
		return b.bools[l.Var].Not()
	}
	return b.bools[l.Var]
}

// constVec renders a constant as a vector of fixed literals.
func (b *Blaster) constVec(v int64, w int) []sat.Lit {
	vec := make([]sat.Lit, w)
	for i := 0; i < w; i++ {
		if v&(1<<i) != 0 {
			vec[i] = b.lTrue
		} else {
			vec[i] = b.lTrue.Not()
		}
	}
	return vec
}

// atomVec returns the vector of an atom, sign-extended to width w.
func (b *Blaster) atomVec(a ir.Atom, w int) []sat.Lit {
	if a.IsConst {
		return b.constVec(a.Const, w)
	}
	return signExtend(b.vecs[a.Var], w)
}

func signExtend(v []sat.Lit, w int) []sat.Lit {
	if len(v) >= w {
		return v[:w]
	}
	out := make([]sat.Lit, w)
	copy(out, v)
	msb := v[len(v)-1]
	for i := len(v); i < w; i++ {
		out[i] = msb
	}
	return out
}

// majGate constrains cout ⇔ maj(x, y, cin), the full-adder carry, with the
// paper's PB pair (eq. 19):
// 2cout + ¬x + ¬y + ¬cin ≥ 2  ∧  2¬cout + x + y + cin ≥ 2.
func (b *Blaster) majGate(cout, x, y, cin sat.Lit) {
	b.out.AddPB([]sat.PBTerm{{Coef: 2, Lit: cout}, {Coef: 1, Lit: x.Not()}, {Coef: 1, Lit: y.Not()}, {Coef: 1, Lit: cin.Not()}}, 2)
	b.out.AddPB([]sat.PBTerm{{Coef: 2, Lit: cout.Not()}, {Coef: 1, Lit: x}, {Coef: 1, Lit: y}, {Coef: 1, Lit: cin}}, 2)
}

// xor3Gate constrains s ⇔ x ⊕ y ⊕ cin, as 8 clauses: for every valuation
// pattern, rule out the wrong sum bit.
func (b *Blaster) xor3Gate(s, x, y, cin sat.Lit) {
	in := [3]sat.Lit{x, y, cin}
	for mask := 0; mask < 8; mask++ {
		parity := (mask&1 ^ mask>>1&1 ^ mask>>2&1) == 1
		var clause [4]sat.Lit
		for i, l := range in {
			if mask&(1<<i) != 0 {
				clause[i] = l.Not() // assumed true
			} else {
				clause[i] = l
			}
		}
		if parity {
			clause[3] = s
		} else {
			clause[3] = s.Not()
		}
		b.out.AddClause(clause[:]...)
	}
}

func negVec(v []sat.Lit) []sat.Lit {
	out := make([]sat.Lit, len(v))
	for i, l := range v {
		out[i] = l.Not()
	}
	return out
}

// andGate returns a fresh literal g with g ⇔ x ∧ y.
func (b *Blaster) andGate(x, y sat.Lit) sat.Lit {
	g := b.newLit()
	b.out.AddClause(g.Not(), x)
	b.out.AddClause(g.Not(), y)
	b.out.AddClause(g, x.Not(), y.Not())
	return g
}

func (b *Blaster) atomWidth(a ir.Atom) int {
	if a.IsConst {
		return widthFor(a.Const, a.Const)
	}
	return len(b.vecs[a.Var])
}

func (b *Blaster) xorGate(g, x, y sat.Lit) {
	b.out.AddClause(g.Not(), x, y)
	b.out.AddClause(g.Not(), x.Not(), y.Not())
	b.out.AddClause(g, x.Not(), y)
	b.out.AddClause(g, x, y.Not())
}

// boundRow returns the pseudo-Boolean row Σ terms ≥ bound that states
// v ≤ k when le, else v ≥ k, over the bits b_i of the signed w-bit vector
// v. With ℓ_i = b_i below the sign bit and ℓ_{w−1} = ¬b_{w−1},
// v + 2^{w−1} = Σ 2^i·ℓ_i, so
//
//	v ≥ k ⇔ Σ 2^i·ℓ_i ≥ k + 2^{w−1}
//	v ≤ k ⇔ Σ 2^i·¬ℓ_i ≥ (2^w − 1) − (k + 2^{w−1}).
//
// Bits the blaster fixed to constants fold into the bound, so bound ≤ 0
// means the relation holds for every value of v and bound > Σ coefficients
// that it holds for none. A k outside v's range folds the same way before
// the bound arithmetic could overflow.
func (b *Blaster) boundRow(vec []sat.Lit, k int64, le bool) ([]sat.PBTerm, int64) {
	w := len(vec)
	half := int64(1) << (w - 1)
	switch {
	case le && k >= half-1, !le && k <= -half:
		return nil, 0
	case le && k < -half, !le && k >= half:
		return nil, 1
	}
	bound := k + half
	if le {
		bound = 2*half - 1 - bound
	}
	terms := make([]sat.PBTerm, 0, w)
	for i, l := range vec {
		if (i == w-1) != le {
			l = l.Not()
		}
		switch c := int64(1) << i; l {
		case b.lTrue:
			bound -= c
		case b.lTrue.Not():
		default:
			terms = append(terms, sat.PBTerm{Coef: c, Lit: l})
		}
	}
	return terms, bound
}

// cmpConstKey memoizes CmpConstLit: integer variable, bound, direction.
type cmpConstKey struct {
	id int
	k  int64
	le bool
}

// CmpConstLit returns (building on first use) a literal that is true iff
// the triplet integer variable id satisfies (≤ k) when le, or (≥ k)
// otherwise. The optimizer passes these literals as assumptions to confine
// the objective during binary search without poisoning the clause database.
// The literal is a fresh selector s tied to v by two rows of boundRow,
// each guarded by the big-M term (its bound)·¬guard: s → (v ≤ k) and
// ¬s → (v ≥ k+1), mirrored for ≥. It builds no gate. A bound that every
// value of v meets, or none does, returns the constant literal.
func (b *Blaster) CmpConstLit(id int, k int64, le bool) (sat.Lit, error) {
	key := cmpConstKey{id, k, le}
	if l, ok := b.cmpConstMemo[key]; ok {
		return l, nil
	}
	vec := b.vecs[id]
	terms, bound := b.boundRow(vec, k, le)
	var room int64
	for _, t := range terms {
		room += t.Coef
	}
	var s sat.Lit
	switch {
	case bound <= 0:
		s = b.lTrue
	case bound > room:
		s = b.lTrue.Not()
	default:
		// The complement of v ≤ k is v ≥ k+1, of v ≥ k is v ≤ k−1; k is
		// inside v's range here, so k±1 cannot overflow.
		nk := k + 1
		if !le {
			nk = k - 1
		}
		nterms, nbound := b.boundRow(vec, nk, !le)
		b.out = sat.NewBatch(b.S)
		s = b.newLit()
		b.out.AddPB(append(terms, sat.PBTerm{Coef: bound, Lit: s.Not()}), bound)
		b.out.AddPB(append(nterms, sat.PBTerm{Coef: nbound, Lit: s}), nbound)
		if err := b.load(); err != nil {
			return sat.LitUndef, err
		}
	}
	b.cmpConstMemo[key] = s
	return s, nil
}

// IntValue decodes the value of triplet integer variable id from the
// solver's current model.
func (b *Blaster) IntValue(id int) int64 {
	vec := b.vecs[id]
	var v int64
	for i, l := range vec {
		if b.S.ModelLit(l) {
			v |= 1 << i
		}
	}
	// Sign extension.
	w := len(vec)
	if v&(1<<(w-1)) != 0 {
		v |= int64(-1) << w
	}
	return v
}

// BoolValue decodes the value of triplet Boolean variable id.
func (b *Blaster) BoolValue(id int) bool { return b.S.ModelLit(b.bools[id]) }

// BoolVar returns the solver variable of triplet Boolean variable id.
func (b *Blaster) BoolVar(id int) sat.Var { return b.bools[id].Var() }
