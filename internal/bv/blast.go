// Package bv bit-blasts triplet-form integer constraint systems into the
// clause/pseudo-Boolean language of the SAT solver, implementing §5.1 of
// Metzner et al. (IPDPS 2006): integer variables become 2's-complement
// bit vectors of logarithmic size, arithmetic triplets become adder and
// multiplier circuits (the carry of the full adder is axiomatized with the
// paper's pair of pseudo-Boolean constraints, eq. 19), and relational
// triplets become comparator circuits. Linear rows over Booleans skip the
// circuits: each becomes one pseudo-Boolean constraint.
//
// By default the blaster structurally hashes the circuit (hash.go): every
// gate goes through a canonicalizing cache, constants fold before
// emission, and defined variables alias their circuit's output wires, so
// shared subterms reach the solver once (see DESIGN.md §14 and
// EncodeStats). Options.DisableHashing restores the legacy
// one-circuit-per-triplet encoding, and Options.Comparator selects the
// circuit family for comparisons against constants.
package bv

import (
	"fmt"

	"satalloc/internal/ir"
	"satalloc/internal/obs"
	"satalloc/internal/sat"
)

// Options tunes the propositional encoding.
type Options struct {
	// CarryAsCNF replaces the paper's pseudo-Boolean axiomatization of the
	// full-adder carry (eq. 19) with a plain 6-clause CNF majority
	// encoding. The default (false) follows the paper; the CNF mode exists
	// as an ablation of §5.1's compactness claim (see
	// BenchmarkCarryEncodingAblation).
	CarryAsCNF bool
	// Comparator selects the circuit family for comparisons against
	// constants (range assertions, constant-sided relational triplets and
	// the optimizer's cost probes). It only takes effect on the hashed
	// path; the legacy path always uses the subtract-based comparator.
	Comparator Comparator
	// DisableHashing reverts to the legacy one-circuit-per-triplet
	// encoding: no gate cache, no constant folding, and defined variables
	// equated to fresh vectors instead of aliasing circuit outputs. It
	// exists for the equisatisfiability ablation and A/B benchmarks.
	DisableHashing bool
	// Trace, when set, is the parent span under which Compile records its
	// Triplet and BitBlast phases. Nil disables tracing.
	Trace *obs.Span
}

// Blaster holds the correspondence between triplet-level variables and
// solver literals and knows how to decode models.
//
// The blaster never calls the solver while it builds a circuit: it
// records every variable, clause and PB constraint in a sat.Batch and
// hands the whole batch to sat.Solver.Load once the circuit is complete —
// at the end of BlastWith for the formula, and at the end of each
// CmpConstLit call for a probe circuit. The batch is dropped right after
// its Load, so it never outlives the call that built it.
type Blaster struct {
	S    *sat.Solver
	Tr   *ir.Triplets
	opts Options

	out *sat.Batch // pending emission; nil between calls

	vecs  [][]sat.Lit // per triplet integer variable, little-endian signed
	bools []sat.Lit   // per triplet Boolean variable
	lTrue sat.Lit     // literal fixed true

	cmpConstMemo map[cmpConstKey]sat.Lit

	// Structural-hashing state (nil cache means the legacy path).
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

// Blast encodes the triplet system into the solver with default options.
// The solver may already contain other constraints; fresh variables are
// allocated as needed.
func Blast(s *sat.Solver, tr *ir.Triplets) (*Blaster, error) {
	return BlastWith(s, tr, Options{})
}

// BlastWith is Blast with explicit encoding options.
func BlastWith(s *sat.Solver, tr *ir.Triplets, opts Options) (*Blaster, error) {
	b := &Blaster{S: s, Tr: tr, opts: opts, cmpConstMemo: map[cmpConstKey]sat.Lit{}}
	b.out = sat.NewBatch(s)
	if tr.Unsat {
		b.out.AddClause()
		return b, b.load()
	}
	b.lTrue = b.newLit()
	b.out.AddClause(b.lTrue)
	var err error
	if opts.DisableHashing {
		err = b.blastLegacy()
	} else {
		b.cache = make(map[gateKey]sat.Lit)
		err = b.blastHashed()
	}
	if err != nil {
		b.out = nil
		return b, err
	}
	return b, b.load()
}

// load hands the pending batch to the solver and drops it.
func (b *Blaster) load() error {
	err := b.S.Load(b.out)
	b.out = nil
	return err
}

// newLit records a fresh variable and returns its positive literal.
func (b *Blaster) newLit() sat.Lit { return sat.PosLit(b.out.NewVar()) }

// blastLegacy is the pre-hashing encoding pass: every triplet variable
// gets a fresh solver vector/literal up front and every definition is a
// fresh circuit equated to it.
func (b *Blaster) blastLegacy() error {
	tr := b.Tr
	b.bools = make([]sat.Lit, len(tr.BoolNames))
	for i := range tr.BoolNames {
		b.bools[i] = b.newLit()
	}
	b.vecs = make([][]sat.Lit, len(tr.Ints))
	for i, info := range tr.Ints {
		w := widthFor(info.Lo, info.Hi)
		vec := make([]sat.Lit, w)
		for j := range vec {
			vec[j] = b.newLit()
		}
		b.vecs[i] = vec
		b.rangeAsserts(vec, info)
	}

	for _, d := range tr.IntDefs {
		if err := b.blastIntDef(d); err != nil {
			return err
		}
	}
	for _, d := range tr.CmpDefs {
		if err := b.blastCmpDef(d); err != nil {
			return err
		}
	}
	for _, g := range tr.Gates {
		if err := b.blastGate(g); err != nil {
			return err
		}
	}
	for _, r := range tr.Roots {
		b.out.AddClause(b.blit(r))
	}
	b.blastLinear()
	return nil
}

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

// fullAdder constrains s and cout to be the sum and carry of x+y+cin,
// using the paper's PB axiomatization for the carry (eq. 19) and a CNF
// parity axiomatization for the sum bit.
func (b *Blaster) fullAdder(s, cout, x, y, cin sat.Lit) {
	b.majGate(cout, x, y, cin)
	b.xor3Gate(s, x, y, cin)
}

// majGate constrains cout ⇔ maj(x, y, cin): the paper's PB pair (eq. 19)
// by default, or the 6-clause CNF majority gate in the ablation mode.
func (b *Blaster) majGate(cout, x, y, cin sat.Lit) {
	if b.opts.CarryAsCNF {
		// Plain CNF majority gate (ablation mode): 6 ternary clauses.
		b.out.AddClause(x.Not(), y.Not(), cout)
		b.out.AddClause(x, y, cout.Not())
		b.out.AddClause(x.Not(), cin.Not(), cout)
		b.out.AddClause(x, cin, cout.Not())
		b.out.AddClause(y.Not(), cin.Not(), cout)
		b.out.AddClause(y, cin, cout.Not())
		return
	}
	// The paper's PB pair (eq. 19):
	// 2cout + ¬x + ¬y + ¬cin ≥ 2  ∧  2¬cout + x + y + cin ≥ 2.
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

// addVec returns a fresh vector constrained to x + y + cin (mod 2^w),
// w = len(x) = len(y).
func (b *Blaster) addVec(x, y []sat.Lit, cin sat.Lit) []sat.Lit {
	w := len(x)
	out := make([]sat.Lit, w)
	carry := cin
	for i := 0; i < w; i++ {
		out[i] = b.newLit()
		cout := b.newLit() // final carry is left dangling
		b.fullAdder(out[i], cout, x[i], y[i], carry)
		carry = cout
	}
	return out
}

func negVec(v []sat.Lit) []sat.Lit {
	out := make([]sat.Lit, len(v))
	for i, l := range v {
		out[i] = l.Not()
	}
	return out
}

// subVec returns x - y (mod 2^w) via x + ¬y + 1.
func (b *Blaster) subVec(x, y []sat.Lit) []sat.Lit {
	return b.addVec(x, negVec(y), b.lTrue)
}

// andGate returns a fresh literal g with g ⇔ x ∧ y.
func (b *Blaster) andGate(x, y sat.Lit) sat.Lit {
	g := b.newLit()
	b.out.AddClause(g.Not(), x)
	b.out.AddClause(g.Not(), y)
	b.out.AddClause(g, x.Not(), y.Not())
	return g
}

// mulVec returns a fresh vector constrained to x*y (mod 2^w) using the
// shift-add scheme over partial products.
func (b *Blaster) mulVec(x, y []sat.Lit) []sat.Lit {
	w := len(x)
	// acc starts as the first partial product: x masked by y[0].
	acc := make([]sat.Lit, w)
	for i := 0; i < w; i++ {
		acc[i] = b.andGate(x[i], y[0])
	}
	for j := 1; j < w; j++ {
		// Partial product row j: (x << j) masked by y[j]; only bits j..w-1
		// are nonzero after the shift.
		row := make([]sat.Lit, w)
		for i := 0; i < j; i++ {
			row[i] = b.lTrue.Not()
		}
		for i := j; i < w; i++ {
			row[i] = b.andGate(x[i-j], y[j])
		}
		acc = b.addVec(acc, row, b.lTrue.Not())
	}
	return acc
}

// equateVec asserts x = y bitwise (same width).
func (b *Blaster) equateVec(x, y []sat.Lit) {
	for i := range x {
		b.iffLits(x[i], y[i])
	}
}

// mulConstVec multiplies a variable vector by a constant using shift-adds
// over the constant's set bits only — no AND-gate partial-product matrix.
// Negative constants multiply by |c| and then negate (0 − v).
func (b *Blaster) mulConstVec(x []sat.Lit, c int64, w int) []sat.Lit {
	neg := false
	if c < 0 {
		neg = true
		c = -c
	}
	zero := b.constVec(0, w)
	acc := zero
	for j := 0; j < w && c>>j != 0; j++ {
		if c&(1<<j) == 0 {
			continue
		}
		// row = x << j, truncated to w bits.
		row := make([]sat.Lit, w)
		for i := 0; i < j; i++ {
			row[i] = b.lTrue.Not()
		}
		for i := j; i < w; i++ {
			row[i] = x[i-j]
		}
		acc = b.addVec(acc, row, b.lTrue.Not())
	}
	if neg {
		return b.subVec(zero, acc)
	}
	return acc
}

func (b *Blaster) blastIntDef(d ir.IntDef) error {
	res := b.vecs[d.Res]
	w := len(res)
	x := b.atomVec(d.A, w)
	y := b.atomVec(d.B, w)
	var out []sat.Lit
	switch d.Op {
	case ir.OpAdd:
		out = b.addVec(x, y, b.lTrue.Not())
	case ir.OpSub:
		out = b.subVec(x, y)
	case ir.OpMul:
		switch {
		case d.A.IsConst:
			out = b.mulConstVec(y, d.A.Const, w)
		case d.B.IsConst:
			out = b.mulConstVec(x, d.B.Const, w)
		default:
			out = b.mulVec(x, y)
		}
	default:
		return fmt.Errorf("bv: unknown arithmetic operator %v", d.Op)
	}
	b.equateVec(res, out)
	return nil
}

// signBitOfDiff returns a literal equal to the sign bit of (x - y) computed
// at width w+1 so the subtraction cannot wrap.
func (b *Blaster) signBitOfDiff(xa, ya ir.Atom) sat.Lit {
	w := max(b.atomWidth(xa), b.atomWidth(ya)) + 1
	d := b.subVec(b.atomVec(xa, w), b.atomVec(ya, w))
	return d[w-1]
}

func (b *Blaster) atomWidth(a ir.Atom) int {
	if a.IsConst {
		return widthFor(a.Const, a.Const)
	}
	return len(b.vecs[a.Var])
}

// eqLit returns a fresh literal ⇔ (x = y) over equal-width vectors.
func (b *Blaster) eqLit(x, y []sat.Lit) sat.Lit {
	p := b.newLit()
	// p → (x_i ⇔ y_i) for all i; ¬p → some difference: (p ∨ diff_1 ∨ …).
	diffClause := []sat.Lit{p}
	for i := range x {
		b.out.AddClause(p.Not(), x[i].Not(), y[i])
		b.out.AddClause(p.Not(), x[i], y[i].Not())
		// diff_i ⇔ x_i ⊕ y_i.
		d := b.newLit()
		b.xorGate(d, x[i], y[i])
		diffClause = append(diffClause, d)
	}
	b.out.AddClause(diffClause...)
	return p
}

func (b *Blaster) xorGate(g, x, y sat.Lit) {
	b.out.AddClause(g.Not(), x, y)
	b.out.AddClause(g.Not(), x.Not(), y.Not())
	b.out.AddClause(g, x.Not(), y)
	b.out.AddClause(g, x, y.Not())
}

// iffLits asserts p ⇔ q.
func (b *Blaster) iffLits(p, q sat.Lit) {
	b.out.AddClause(p.Not(), q)
	b.out.AddClause(p, q.Not())
}

func (b *Blaster) blastCmpDef(d ir.CmpDef) error {
	p := b.bools[d.P]
	switch d.Op {
	case ir.OpLE:
		// a ≤ b ⇔ ¬(b < a) ⇔ ¬sign(b - a).
		b.iffLits(p, b.signBitOfDiff(d.B, d.A).Not())
	case ir.OpLT:
		b.iffLits(p, b.signBitOfDiff(d.A, d.B))
	case ir.OpEQ, ir.OpNE:
		w := max(b.atomWidth(d.A), b.atomWidth(d.B))
		e := b.eqLit(b.atomVec(d.A, w), b.atomVec(d.B, w))
		if d.Op == ir.OpNE {
			e = e.Not()
		}
		b.iffLits(p, e)
	default:
		return fmt.Errorf("bv: unknown relational operator %v", d.Op)
	}
	return nil
}

func (b *Blaster) blastGate(g ir.Gate) error {
	p := b.bools[g.P]
	q := b.blit(g.Q)
	r := b.blit(g.R)
	switch g.Op {
	case ir.OpAnd:
		b.out.AddClause(p.Not(), q)
		b.out.AddClause(p.Not(), r)
		b.out.AddClause(p, q.Not(), r.Not())
	case ir.OpOr:
		b.out.AddClause(p, q.Not())
		b.out.AddClause(p, r.Not())
		b.out.AddClause(p.Not(), q, r)
	case ir.OpImply:
		b.out.AddClause(p.Not(), q.Not(), r)
		b.out.AddClause(p, q)
		b.out.AddClause(p, r.Not())
	case ir.OpIff:
		b.out.AddClause(p.Not(), q.Not(), r)
		b.out.AddClause(p.Not(), q, r.Not())
		b.out.AddClause(p, q, r)
		b.out.AddClause(p, q.Not(), r.Not())
	case ir.OpXor:
		b.xorGate(p, q, r)
	default:
		return fmt.Errorf("bv: unknown gate %v", g.Op)
	}
	return nil
}

// assertCmpConst asserts v ≥ k (ge=true) or v ≤ k (ge=false) against a
// constant.
func (b *Blaster) assertCmpConst(vec []sat.Lit, k int64, ge bool) {
	if b.hashed() {
		b.assertCmpConstH(vec, k, ge)
		return
	}
	// The legacy path reuses the generic subtract-based comparator: the
	// sign bit of v − k (ge) or k − v at width w+1 must be clear.
	w := len(vec) + 1
	x := signExtend(vec, w)
	y := b.constVec(k, w)
	var d []sat.Lit
	if ge {
		d = b.subVec(x, y) // v - k ≥ 0 ⇔ ¬sign
	} else {
		d = b.subVec(y, x) // k - v ≥ 0 ⇔ ¬sign
	}
	b.out.AddClause(d[w-1].Not())
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
func (b *Blaster) CmpConstLit(id int, k int64, le bool) (sat.Lit, error) {
	key := cmpConstKey{id, k, le}
	if l, ok := b.cmpConstMemo[key]; ok {
		return l, nil
	}
	b.out = sat.NewBatch(b.S)
	var l sat.Lit
	if b.hashed() {
		l = b.cmpConstLitH(id, k, le)
	} else {
		vec := b.vecs[id]
		w := len(vec) + 1
		x := signExtend(vec, w)
		y := b.constVec(k, w)
		var d []sat.Lit
		if le {
			d = b.subVec(y, x) // k - v ≥ 0
		} else {
			d = b.subVec(x, y) // v - k ≥ 0
		}
		l = d[w-1].Not()
	}
	if err := b.load(); err != nil {
		return sat.LitUndef, err
	}
	b.cmpConstMemo[key] = l
	return l, nil
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
