package sat

import "errors"

// ProofLogger receives the solver's inference trace: every constraint that
// enters the database, every clause the solver learns or deletes, and every
// assumption set it refutes. A logger that records these steps holds enough
// information for an independent checker to re-derive each verdict by unit
// propagation alone (see internal/proof), which is what turns an UNSAT
// boolean into a machine-checkable certificate.
//
// Hooks fire on the solver's goroutine, in program order, and must not call
// back into the solver. Slices are owned by the solver and only valid for
// the duration of the call; implementations must copy what they keep.
type ProofLogger interface {
	// ProofInput records an added clause, pre-normalization, exactly as the
	// caller passed it: the certificate is relative to the solver's actual
	// inputs, not to a cleaned-up rewrite of them.
	ProofInput(lits []Lit)
	// ProofInputPB records an added pseudo-Boolean constraint
	// Σ terms ≥ bound, pre-normalization.
	ProofInputPB(terms []PBTerm, bound int64)
	// ProofLearn records a clause derived by conflict analysis (or a
	// root-level simplification). An empty or nil slice is the empty
	// clause: the formula has been refuted.
	ProofLearn(lits []Lit)
	// ProofDelete records a learnt clause leaving the database (reduceDB).
	ProofDelete(lits []Lit)
	// ProofProbe records that Solve returned Unsat under the given
	// assumptions: the database plus the assumption units propagate to a
	// conflict.
	ProofProbe(assumptions []Lit)
}

// SetProofLogger installs pl to receive the solver's inference trace. It
// must be called on an empty solver — before any NewVar, AddClause, or
// AddPB — so the certificate covers every constraint, and it is
// incompatible with the parallel portfolio: an imported clause is justified
// by another worker's derivation, which this solver's log cannot replay, so
// per-solver RUP checking breaks down. Proof logging is sequential-only;
// NewParallel rejects a base solver with a logger installed.
func (s *Solver) SetProofLogger(pl ProofLogger) error {
	if s.journal != nil {
		return errors.New("sat: proof logging is incompatible with the parallel portfolio (shared clauses are not RUP in the importer's log); use a sequential solver")
	}
	if s.NumVariables() > 0 || len(s.clauses) > 0 || s.pb.count() > 0 || len(s.trail) > 0 || !s.ok {
		return errors.New("sat: proof logger must be installed on an empty solver")
	}
	s.proof = pl
	return nil
}

// Core returns the subset of assumption literals the last Solve call proved
// jointly unsatisfiable with the formula, or nil when the last Unsat was
// formula-level (no assumption participates). The slice is recomputed by
// each Solve call; callers must copy it if they keep it across calls.
//
// The core is a sound over-approximation of a minimal unsatisfiable subset:
// every literal in it lies on the implication chain that falsified a failed
// assumption, but minimality is not guaranteed — callers wanting a minimal
// core re-solve with candidate subsets (see opt.ExplainInfeasible).
func (s *Solver) Core() []Lit { return s.lastCore }

// markRefuted records a root-level refutation: the formula is now known
// unsatisfiable, and the proof (when logging) gains its terminating empty
// clause — which is RUP for the checker at this point, since the solver
// only reaches these sites after root unit propagation hits a conflict.
func (s *Solver) markRefuted() {
	s.ok = false
	if s.proof != nil {
		s.proof.ProofLearn(nil)
	}
}

// analyzeFinal computes the assumption core after the assumption literal p
// was found falsified: it walks the trail backwards from the conflict,
// expanding propagation reasons, and collects the assumption decisions
// (nil-reason literals above the first decision level) the falsification
// depends on. At the call point every decision on the trail is an
// assumption — search backjumps past ordinary decisions before it reaches
// the assumption block — so nil-reason literals at level > 0 are exactly
// the assumptions.
func (s *Solver) analyzeFinal(p Lit) []Lit {
	core := []Lit{p}
	if s.vars[p.Var()].level == 0 {
		// ¬p holds at the root: the formula alone refutes p.
		return core
	}
	s.vars[p.Var()].seen = 1
	for i := len(s.trail) - 1; i >= int(s.trailLim[0]); i-- {
		q := s.trail[i]
		v := q.Var()
		if s.vars[v].seen == 0 {
			continue
		}
		s.vars[v].seen = 0
		r := s.vars[v].reason
		if r.none() {
			core = append(core, q)
			continue
		}
		for _, l := range s.explain(r, q, int(s.vars[v].pos), nil) {
			if l != q && s.vars[l.Var()].level > 0 {
				s.vars[l.Var()].seen = 1
			}
		}
	}
	// Every seen-marked variable has level > 0 and therefore sits in the
	// walked trail segment, so the loop above also cleared all marks.
	return core
}
