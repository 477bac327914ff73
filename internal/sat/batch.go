package sat

import "errors"

// Batch is a flat record of NewVar, AddClause and AddPB calls, kept in
// call order and loaded into a solver in one go by Solver.Load. Recording
// costs an append to one of three pointer-free slices, so a producer that
// builds a whole formula (the bit-blaster) or a run of deltas (the
// portfolio journal) never grows the solver one call at a time.
//
// A batch continues the variable numbering of the solver it was made
// for: its NewVar hands out the variables that solver would allocate
// next, and Load refuses a solver whose numbering has moved on.
type Batch struct {
	next   Var      // variable the first recorded NewVar stands for
	nvars  int      // NewVar calls recorded
	ops    []uint32 // one per AddClause/AddPB call, in call order: operand count | opPB
	lits   []Lit    // clause literals, back to back
	terms  []PBTerm // PB terms, back to back
	bounds []int64  // one per AddPB call
}

// opPB marks an op as an AddPB call; the low bits count its terms (an
// AddClause op counts its literals).
const opPB = 1 << 31

// NewBatch returns an empty batch that continues s's variable numbering.
func NewBatch(s *Solver) *Batch {
	b := &Batch{}
	b.Reset(s)
	return b
}

// Reset empties the batch, keeping its storage, and restarts its
// numbering at the variable s would allocate next.
func (b *Batch) Reset(s *Solver) {
	b.next = Var(len(s.vars))
	b.nvars = 0
	b.ops = b.ops[:0]
	b.lits = b.lits[:0]
	b.terms = b.terms[:0]
	b.bounds = b.bounds[:0]
}

// NewVar records a variable allocation and returns the variable it will
// be once the batch is loaded.
func (b *Batch) NewVar() Var {
	v := b.next + Var(b.nvars)
	b.nvars++
	return v
}

// AddClause records a clause. The literal slice is not retained.
func (b *Batch) AddClause(lits ...Lit) {
	b.ops = append(b.ops, uint32(len(lits)))
	b.lits = append(b.lits, lits...)
}

// AddPB records the constraint Σ terms ≥ bound. The terms slice is not
// retained.
func (b *Batch) AddPB(terms []PBTerm, bound int64) {
	b.ops = append(b.ops, uint32(len(terms))|opPB)
	b.terms = append(b.terms, terms...)
	b.bounds = append(b.bounds, bound)
}

// Load replays b into s: its variables first, then its clauses and PB
// constraints in call order through AddClause and AddPB. Before replaying,
// it grows the per-variable slices, the heap, the clause arena, the
// clause list and the PB store once, to the size the batch needs, so the
// replay itself appends into reserved room. The result is exactly the
// solver direct intake of the same calls gives — same normalization, root
// propagation, watch-list order and heap order — because variable
// allocation touches neither the trail nor the heap order (a fresh
// variable has zero activity) and the constraints replay in their
// original order. s must be at decision level 0; b is not modified.
func (s *Solver) Load(b *Batch) error {
	if s.decisionLevel() != 0 {
		return ErrNotAtRoot
	}
	if b.next != Var(len(s.vars)) {
		return errors.New("sat: batch does not continue the solver's variable numbering")
	}
	s.reserve(b)
	for i := 0; i < b.nvars; i++ {
		s.NewVar()
	}
	var li, ti, pi int
	for _, op := range b.ops {
		n := int(op &^ opPB)
		var err error
		if op&opPB != 0 {
			err = s.AddPB(b.terms[ti:ti+n], b.bounds[pi])
			ti += n
			pi++
		} else {
			err = s.AddClause(b.lits[li : li+n]...)
			li += n
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// reserve grows s's storage by what loading b can take: exactly b's
// variables, and at most one arena slot per clause and one PB-store slot
// per constraint (normalization may drop or shorten some, and a PB
// constraint that normalizes to a clause goes to the arena instead).
func (s *Solver) reserve(b *Batch) {
	n := b.nvars
	s.vals = grow(s.vals, 2*n)
	s.vars = grow(s.vars, n)
	s.activity = grow(s.activity, n)
	s.occs = grow(s.occs, 2*n)
	s.heap.heap = grow(s.heap.heap, n)
	s.heap.indices = grow(s.heap.indices, len(s.vars)+n-len(s.heap.indices))
	pbs := len(b.bounds)
	clauses := len(b.ops) - pbs
	s.ca.data = grow(s.ca.data, clauses*hdrWords+len(b.lits))
	s.clauses = grow(s.clauses, clauses)
	s.pb.hdr = grow(s.pb.hdr, pbs)
	s.pb.slack = grow(s.pb.slack, pbs)
	s.pb.terms = grow(s.pb.terms, len(b.terms))
}

// grow returns s with room for at least n more elements. Loading a whole
// formula into a fresh solver needs more than the slice holds, and gets
// exactly that; a small load into a grown solver grows the slice by a
// quarter, as append would, so repeated small loads stay amortized. The
// copy goes into one new array: slices.Grow's append idiom also builds a
// temporary of n elements when the compiler does not fuse it, as under
// the race detector.
func grow[T any](s []T, n int) []T {
	if cap(s)-len(s) >= n {
		return s
	}
	ns := make([]T, len(s), max(len(s)+n, cap(s)+cap(s)/4))
	copy(ns, s)
	return ns
}
