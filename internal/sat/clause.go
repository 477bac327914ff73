package sat

// Clauses live in the solver's flat arena (see arena.go) and are
// addressed by clauseRef. The first two literals of a clause are the
// watched ones; the solver maintains the invariant that a watched literal
// is either unassigned, true, or — if false — every other literal is
// false too (conflict) or the other watch is true/propagated.

// reason justifies a propagated literal or a conflict during analysis: a
// clause in the arena, a PB constraint, or nothing (decisions, assumption
// literals, and root units carry noReason). It is an 8-byte value holding
// two 32-bit ids and no pointer, so the per-variable reason slots cost the
// garbage collector nothing to scan and the hot paths need no interface
// dispatch or type assertion.
type reason struct {
	ref clauseRef
	pb  pbID
}

var noReason = reason{}

func clauseReason(r clauseRef) reason { return reason{ref: r} }

func pbReason(id pbID) reason { return reason{pb: id} }

// none reports the absence of a justification (decision/assumption/unit).
//
//satlint:hotpath alloc-free
func (r reason) none() bool { return r == noReason }

// isClause reports whether the reason is an arena clause.
//
//satlint:hotpath alloc-free
func (r reason) isClause() bool { return r.ref != nilRef }

// explain appends to out an implied clause that contains lit (the
// propagated literal) and whose remaining literals were all false when
// lit was assigned at trail position pos. For a conflict explanation, lit
// is LitUndef and the returned clause is falsified by the current
// assignment.
func (s *Solver) explain(r reason, lit Lit, pos int, out []Lit) []Lit {
	if r.pb != nilPB {
		return s.explainPB(r.pb, lit, pos, out)
	}
	for _, l := range s.ca.lits(r.ref) {
		if l != lit {
			out = append(out, l)
		}
	}
	if lit != LitUndef {
		out = append(out, lit)
	}
	return out
}

// watcher is an entry in a literal's watch list. blocker is a cached literal
// of the clause: if the blocker is already true the clause is satisfied and
// the watch needs no work.
type watcher struct {
	ref     clauseRef
	blocker Lit
}

// binWatcher is an entry in a literal's binary-clause watch list. A binary
// clause (a ∨ b) is stored twice — under ¬a with other=b and under ¬b with
// other=a — so falsifying either literal immediately exposes the implied
// one without the watcher-search loop long clauses need. The ref is kept
// only to serve as the propagation reason during conflict analysis.
type binWatcher struct {
	other Lit
	ref   clauseRef
}
