package bv

import (
	"fmt"

	"satalloc/internal/ir"
	"satalloc/internal/sat"
)

// EncodeStats counts gate-level work during bit-blasting. A "gate" is one
// request for a Boolean function of up to three literals (AND, XOR, XOR3,
// MAJ); vector circuits are built from these. Requested = Emitted + Folded
// + Reused(): emitted gates allocated a fresh solver variable and clauses,
// folded gates were resolved by constant propagation or operand identities,
// and reused gates hit the structural-hashing cache.
type EncodeStats struct {
	GatesRequested int64
	GatesEmitted   int64
	GatesFolded    int64
}

// GatesReused returns the number of gate requests answered from the
// structural-hashing cache.
func (st EncodeStats) GatesReused() int64 {
	return st.GatesRequested - st.GatesEmitted - st.GatesFolded
}

// Stats returns the gate counters accumulated so far. Only the blast
// requests gates: CmpConstLit's probe rows build none, so an optimizer
// that diffs the counters per call charges gates only to a call that
// re-encodes the formula.
func (b *Blaster) Stats() EncodeStats { return b.stats }

type gateOp uint8

const (
	gAnd gateOp = iota
	gXor
	gXor3
	gMaj
)

// gateKey canonically identifies a gate: operands are sorted, and XOR keys
// store sign-stripped literals (the sign moves to the output), so x⊕y,
// ¬x⊕y, x⊕¬y and ¬x⊕¬y all share one circuit.
type gateKey struct {
	op      gateOp
	a, b, c sat.Lit
}

// andLit returns a literal ⇔ x ∧ y, folding constants and identities and
// reusing a previously emitted gate when one matches.
func (b *Blaster) andLit(x, y sat.Lit) sat.Lit {
	b.stats.GatesRequested++
	lT := b.lTrue
	lF := lT.Not()
	switch {
	case x == lF || y == lF || x == y.Not():
		b.stats.GatesFolded++
		return lF
	case x == lT || x == y:
		b.stats.GatesFolded++
		return y
	case y == lT:
		b.stats.GatesFolded++
		return x
	}
	if y < x {
		x, y = y, x
	}
	k := gateKey{op: gAnd, a: x, b: y}
	if g, ok := b.cache[k]; ok {
		return g
	}
	g := b.andGate(x, y)
	b.stats.GatesEmitted++
	b.cache[k] = g
	return g
}

// orLit returns a literal ⇔ x ∨ y via De Morgan, so an OR and the AND of
// the complemented operands share one gate.
func (b *Blaster) orLit(x, y sat.Lit) sat.Lit {
	return b.andLit(x.Not(), y.Not()).Not()
}

// xorLit returns a literal ⇔ x ⊕ y. Operand signs are stripped into the
// output sign before cache lookup: x ⊕ y = (x₀ ⊕ y₀) ⊕ sign(x) ⊕ sign(y).
func (b *Blaster) xorLit(x, y sat.Lit) sat.Lit {
	b.stats.GatesRequested++
	lT := b.lTrue
	lF := lT.Not()
	switch {
	case x == y:
		b.stats.GatesFolded++
		return lF
	case x == y.Not():
		b.stats.GatesFolded++
		return lT
	case x == lT:
		b.stats.GatesFolded++
		return y.Not()
	case x == lF:
		b.stats.GatesFolded++
		return y
	case y == lT:
		b.stats.GatesFolded++
		return x.Not()
	case y == lF:
		b.stats.GatesFolded++
		return x
	}
	neg := x.Sign() != y.Sign()
	x0, y0 := x&^1, y&^1
	if y0 < x0 {
		x0, y0 = y0, x0
	}
	k := gateKey{op: gXor, a: x0, b: y0}
	g, ok := b.cache[k]
	if !ok {
		g = b.newLit()
		b.stats.GatesEmitted++
		b.xorGate(g, x0, y0)
		b.cache[k] = g
	}
	if neg {
		return g.Not()
	}
	return g
}

// xor3Lit returns a literal ⇔ x ⊕ y ⊕ z (the full-adder sum bit).
// Constant or same-variable operands collapse to a two-input XOR or a
// wire; otherwise signs are stripped into the output as in xorLit.
func (b *Blaster) xor3Lit(x, y, z sat.Lit) sat.Lit {
	b.stats.GatesRequested++
	lT := b.lTrue
	lF := lT.Not()
	two := func(p, q sat.Lit, flip bool) sat.Lit {
		b.stats.GatesFolded++
		g := b.xorLit(p, q)
		if flip {
			g = g.Not()
		}
		return g
	}
	switch {
	case x == lT || x == lF:
		return two(y, z, x == lT)
	case y == lT || y == lF:
		return two(x, z, y == lT)
	case z == lT || z == lF:
		return two(x, y, z == lT)
	case x.Var() == y.Var():
		b.stats.GatesFolded++
		if x == y {
			return z
		}
		return z.Not()
	case x.Var() == z.Var():
		b.stats.GatesFolded++
		if x == z {
			return y
		}
		return y.Not()
	case y.Var() == z.Var():
		b.stats.GatesFolded++
		if y == z {
			return x
		}
		return x.Not()
	}
	neg := (int32(x) ^ int32(y) ^ int32(z)) & 1
	a, c2, c3 := x&^1, y&^1, z&^1
	if c2 < a {
		a, c2 = c2, a
	}
	if c3 < c2 {
		c2, c3 = c3, c2
		if c2 < a {
			a, c2 = c2, a
		}
	}
	k := gateKey{op: gXor3, a: a, b: c2, c: c3}
	g, ok := b.cache[k]
	if !ok {
		g = b.newLit()
		b.stats.GatesEmitted++
		b.xor3Gate(g, a, c2, c3)
		b.cache[k] = g
	}
	if neg == 1 {
		return g.Not()
	}
	return g
}

// majLit returns a literal ⇔ maj(x, y, z) (the full-adder carry bit).
// A constant operand reduces it to AND/OR; a repeated or complementary
// operand pair reduces it to a wire.
func (b *Blaster) majLit(x, y, z sat.Lit) sat.Lit {
	b.stats.GatesRequested++
	lT := b.lTrue
	lF := lT.Not()
	switch {
	case x == lT:
		b.stats.GatesFolded++
		return b.orLit(y, z)
	case x == lF:
		b.stats.GatesFolded++
		return b.andLit(y, z)
	case y == lT:
		b.stats.GatesFolded++
		return b.orLit(x, z)
	case y == lF:
		b.stats.GatesFolded++
		return b.andLit(x, z)
	case z == lT:
		b.stats.GatesFolded++
		return b.orLit(x, y)
	case z == lF:
		b.stats.GatesFolded++
		return b.andLit(x, y)
	case x == y:
		b.stats.GatesFolded++
		return x
	case x == y.Not():
		b.stats.GatesFolded++
		return z
	case x == z:
		b.stats.GatesFolded++
		return x
	case x == z.Not():
		b.stats.GatesFolded++
		return y
	case y == z:
		b.stats.GatesFolded++
		return y
	case y == z.Not():
		b.stats.GatesFolded++
		return x
	}
	// maj is symmetric: sort the operands for a canonical key.
	if y < x {
		x, y = y, x
	}
	if z < y {
		y, z = z, y
		if y < x {
			x, y = y, x
		}
	}
	k := gateKey{op: gMaj, a: x, b: y, c: z}
	if g, ok := b.cache[k]; ok {
		return g
	}
	g := b.newLit()
	b.stats.GatesEmitted++
	b.majGate(g, x, y, z)
	b.cache[k] = g
	return g
}

// addVec returns x + y + cin (mod 2^w) as a vector of gate outputs (or
// constants).
func (b *Blaster) addVec(x, y []sat.Lit, cin sat.Lit) []sat.Lit {
	out := make([]sat.Lit, len(x))
	c := cin
	for i := range x {
		out[i] = b.xor3Lit(x[i], y[i], c)
		c = b.majLit(x[i], y[i], c)
	}
	return out
}

// subVec returns x − y (mod 2^w) via x + ¬y + 1.
func (b *Blaster) subVec(x, y []sat.Lit) []sat.Lit {
	return b.addVec(x, negVec(y), b.lTrue)
}

// mulVec is the shift-add multiplier over hashed partial products.
func (b *Blaster) mulVec(x, y []sat.Lit) []sat.Lit {
	w := len(x)
	lF := b.lTrue.Not()
	acc := make([]sat.Lit, w)
	for i := 0; i < w; i++ {
		acc[i] = b.andLit(x[i], y[0])
	}
	for j := 1; j < w; j++ {
		row := make([]sat.Lit, w)
		for i := 0; i < j; i++ {
			row[i] = lF
		}
		for i := j; i < w; i++ {
			row[i] = b.andLit(x[i-j], y[j])
		}
		acc = b.addVec(acc, row, lF)
	}
	return acc
}

// mulConstVec multiplies by a constant over the constant's set bits; the
// initial zero accumulator and shifted-in zero bits fold away entirely.
func (b *Blaster) mulConstVec(x []sat.Lit, c int64, w int) []sat.Lit {
	neg := false
	if c < 0 {
		neg = true
		c = -c
	}
	lF := b.lTrue.Not()
	zero := b.constVec(0, w)
	acc := zero
	for j := 0; j < w && c>>j != 0; j++ {
		if c&(1<<j) == 0 {
			continue
		}
		row := make([]sat.Lit, w)
		for i := 0; i < j; i++ {
			row[i] = lF
		}
		for i := j; i < w; i++ {
			row[i] = x[i-j]
		}
		acc = b.addVec(acc, row, lF)
	}
	if neg {
		return b.subVec(zero, acc)
	}
	return acc
}

// eqLit returns a literal ⇔ (x = y) as an XNOR-AND chain; per-bit XORs
// against constant operands fold to wires.
func (b *Blaster) eqLit(x, y []sat.Lit) sat.Lit {
	acc := b.lTrue
	for i := range x {
		acc = b.andLit(acc, b.xorLit(x[i], y[i]).Not())
	}
	return acc
}

// signOfSub returns the sign bit of x − y computed over the carry chain
// only: the unused low sum bits of the subtraction are never materialized,
// so a comparator costs one MAJ per bit plus one final XOR3.
func (b *Blaster) signOfSub(x, y []sat.Lit) sat.Lit {
	w := len(x)
	c := b.lTrue
	for i := 0; i < w-1; i++ {
		c = b.majLit(x[i], y[i].Not(), c)
	}
	return b.xor3Lit(x[w-1], y[w-1].Not(), c)
}

// signBitOfDiff returns the sign bit of x − y over atoms, computed at
// width w+1 so the subtraction cannot wrap.
func (b *Blaster) signBitOfDiff(xa, ya ir.Atom) sat.Lit {
	w := max(b.atomWidth(xa), b.atomWidth(ya)) + 1
	return b.signOfSub(b.atomVec(xa, w), b.atomVec(ya, w))
}

// blast is the encoding pass. Only free variables get fresh solver
// literals: defined integers and Booleans alias their circuit's output
// wires (sound because ToTriplets emits definitions in topological order,
// each result defined exactly once), and every gate goes through the
// fold/cache layer above.
func (b *Blaster) blast() error {
	tr := b.Tr
	defInt := make([]bool, len(tr.Ints))
	for _, d := range tr.IntDefs {
		defInt[d.Res] = true
	}
	defBool := make([]bool, len(tr.BoolNames))
	for _, d := range tr.CmpDefs {
		defBool[d.P] = true
	}
	for _, g := range tr.Gates {
		defBool[g.P] = true
	}

	b.bools = make([]sat.Lit, len(tr.BoolNames))
	for i := range tr.BoolNames {
		if !defBool[i] {
			b.bools[i] = b.newLit()
		}
	}
	b.vecs = make([][]sat.Lit, len(tr.Ints))
	for i, info := range tr.Ints {
		if defInt[i] {
			continue
		}
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

// rangeAsserts adds lo ≤ v ≤ hi, one PB row per side, when the vector's
// width admits values outside the declared range.
func (b *Blaster) rangeAsserts(vec []sat.Lit, info ir.IntInfo) {
	if terms, bound := b.boundRow(vec, info.Lo, false); bound > 0 {
		b.out.AddPB(terms, bound)
	}
	if terms, bound := b.boundRow(vec, info.Hi, true); bound > 0 {
		b.out.AddPB(terms, bound)
	}
}

func (b *Blaster) blastIntDef(d ir.IntDef) error {
	info := b.Tr.Ints[d.Res]
	w := widthFor(info.Lo, info.Hi)
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
	// Output aliasing: the result IS the circuit output — no fresh vector,
	// no equate chain. The declared range still narrows it when needed.
	b.vecs[d.Res] = out
	b.rangeAsserts(out, info)
	return nil
}

// leLit returns a literal ⇔ (x ≤ y) over atoms.
func (b *Blaster) leLit(xa, ya ir.Atom) sat.Lit {
	if xa.IsConst && ya.IsConst {
		if xa.Const <= ya.Const {
			return b.lTrue
		}
		return b.lTrue.Not()
	}
	// x ≤ y ⇔ ¬sign(y − x).
	return b.signBitOfDiff(ya, xa).Not()
}

func (b *Blaster) blastCmpDef(d ir.CmpDef) error {
	var p sat.Lit
	switch d.Op {
	case ir.OpLE:
		p = b.leLit(d.A, d.B)
	case ir.OpLT:
		// a < b ⇔ ¬(b ≤ a).
		p = b.leLit(d.B, d.A).Not()
	case ir.OpEQ, ir.OpNE:
		w := max(b.atomWidth(d.A), b.atomWidth(d.B))
		p = b.eqLit(b.atomVec(d.A, w), b.atomVec(d.B, w))
		if d.Op == ir.OpNE {
			p = p.Not()
		}
	default:
		return fmt.Errorf("bv: unknown relational operator %v", d.Op)
	}
	b.bools[d.P] = p
	return nil
}

func (b *Blaster) blastGate(g ir.Gate) error {
	q := b.blit(g.Q)
	r := b.blit(g.R)
	var p sat.Lit
	switch g.Op {
	case ir.OpAnd:
		p = b.andLit(q, r)
	case ir.OpOr:
		p = b.orLit(q, r)
	case ir.OpImply:
		p = b.orLit(q.Not(), r)
	case ir.OpIff:
		p = b.xorLit(q, r).Not()
	case ir.OpXor:
		p = b.xorLit(q, r)
	default:
		return fmt.Errorf("bv: unknown gate %v", g.Op)
	}
	b.bools[g.P] = p
	return nil
}
