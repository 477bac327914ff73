package sat

import (
	"errors"
	"math"
	"slices"
	"sort"

	"satalloc/internal/faultinject"
)

// Status is the outcome of a Solve call.
type Status int

// Solve outcomes.
const (
	// Unknown means the solver gave up (conflict budget exhausted).
	Unknown Status = iota
	// Sat means a satisfying assignment was found; see Model.
	Sat
	// Unsat means the formula (under the given assumptions) is
	// unsatisfiable.
	Unsat
)

func (st Status) String() string {
	switch st {
	case Sat:
		return "SAT"
	case Unsat:
		return "UNSAT"
	}
	return "UNKNOWN"
}

// Stats aggregates solver counters across all Solve calls on one Solver.
type Stats struct {
	Decisions    int64
	Propagations int64
	Conflicts    int64
	Restarts     int64
	LearntAdded  int64
	LearntPruned int64
	NumClauses   int
	NumPB        int
	NumVars      int
	// NumLiterals counts the literal occurrences of all stored problem
	// clauses and PB constraints (the "Lit." column of the paper's
	// tables).
	NumLiterals int64
}

// Progress is a point-in-time snapshot of the search, delivered to the
// Solver's OnProgress hook.
type Progress struct {
	// Event names the boundary that triggered the callback: "solve"
	// (entry of a Solve call), "restart", "reduce" (learnt-DB
	// reduction), or "done" (exit of a Solve call — the snapshot where
	// the cumulative counters hold their final values for the call).
	Event        string
	Conflicts    int64
	Decisions    int64
	Propagations int64
	Restarts     int64
	// LearntAdded and LearntPruned are the cumulative learnt-clause
	// counters (Stats.LearntAdded/LearntPruned) at the callback point.
	LearntAdded  int64
	LearntPruned int64
	// Learnts is the current size of the learnt-clause database.
	Learnts int
	// TrailDepth is the number of literals assigned at the callback point.
	TrailDepth int
}

// Solver is a CDCL SAT solver over clauses and pseudo-Boolean constraints.
// The zero value is not usable; call New.
//
// A Solver is single-goroutine; wrap it if concurrent access is needed.
// After a Solve call the solver can accept further clauses and be solved
// again; learnt clauses are retained, which is what gives the binary-search
// optimizer its incremental speedup.
type Solver struct {
	// vals is the assignment indexed by Lit, so a literal's value is one
	// load: vals[l] and vals[l.Not()] are always complementary (or both
	// LUndef). Slots 0 and 1 (variable 0) are unused.
	vals []LBool
	// vars holds the per-variable search state, indexed by Var (slot 0
	// unused).
	vars     []varInfo
	activity []float64

	heap   *varHeap
	varInc float64

	occs      []litOccs // indexed by Lit: what assigning the literal true touches
	watchSlab occSlab[watcher]
	binSlab   occSlab[binWatcher]
	pbSlab    occSlab[pbWatch]
	ca        *clauseArena // flat backing store for clauses and learnts
	clauses   []clauseRef
	learnts   []clauseRef
	pb        pbStore
	claInc    float64
	maxLearnt float64

	trail    []Lit
	trailLim []int32
	qhead    int

	// Scratch buffers for normalizing constraints on intake, reused
	// across calls so adding a clause or PB constraint allocates only when
	// the solver's own storage grows.
	litBuf  []Lit
	termBuf []PBTerm

	ok    bool    // false once the formula is known unsatisfiable at level 0
	model []LBool // vals of the last satisfying assignment, indexed by Lit

	// MaxConflicts, when > 0, bounds the number of conflicts per Solve
	// call; exceeding it yields Unknown.
	MaxConflicts int64

	// OnProgress, when non-nil, receives a Progress snapshot at
	// low-frequency search boundaries: the entry of each Solve call, each
	// restart, and each learnt-DB reduction. The hot propagation loop
	// never checks it, so a nil hook costs nothing and a set hook costs
	// O(restarts) calls per solve.
	OnProgress func(Progress)

	// OnConflict, when non-nil, receives per-conflict learning metrics —
	// the learnt clause's literal block distance, the number of decision
	// levels undone by the backjump, and the learnt clause's length. It
	// fires once per conflict on the analysis path (never inside
	// propagation), so a nil hook costs one branch per conflict and a set
	// hook one call — cheap enough for live LBD histograms, but keep the
	// hook allocation-free.
	OnConflict func(lbd, backjump, learntLen int)

	// Stop, when non-nil, is polled at the entry of each Solve call, at
	// every restart boundary, and every stopCheckConflicts conflicts /
	// stopCheckDecisions decisions (so low-conflict searches remain
	// interruptible). Returning true makes Solve return Unknown with the
	// solver state intact: learnt clauses survive and further Solve calls
	// are valid. The hot propagation loop never polls it. Callers
	// typically close over a context: s.Stop = func() bool { return
	// ctx.Err() != nil }.
	Stop func() bool

	// Portfolio diversification knobs, defaulted by New to the values the
	// sequential solver has always used, so a solver with untouched knobs
	// behaves bit-for-bit like before they existed. The parallel portfolio
	// varies them per worker.
	//
	// varDecay is the VSIDS activity decay (varInc grows by 1/varDecay per
	// conflict); restartUnit scales the Luby restart sequence (conflicts
	// per restart = luby(i) * restartUnit).
	varDecay    float64
	restartUnit int64
	// stopEveryConflicts/stopEveryDecisions are the Stop-poll intervals
	// (defaults stopCheckConflicts/stopCheckDecisions). The portfolio
	// tightens them on race workers: once a rival finds the verdict, every
	// conflict a loser runs past it is pure wasted wall clock on shared
	// cores, so losers must notice the cancellation within a few conflicts
	// rather than within a restart.
	stopEveryConflicts int64
	stopEveryDecisions int64

	// Clause-sharing hooks, installed only by the parallel portfolio.
	// shareExport receives every learnt clause (asserting literal first)
	// with its LBD right after it is recorded; the hook must copy the
	// slice if it retains it, and must not touch the solver. shareSync is
	// called at decision level 0 — at Solve entry and at every restart
	// boundary — and is where the portfolio flushes exports and imports
	// other workers' clauses into this solver; it returns false when an
	// imported clause is falsified at the root, proving the formula
	// unsatisfiable. Both are nil on a sequential solver, costing one nil
	// check each.
	shareExport func(lits []Lit, lbd int)
	shareSync   func() bool

	// journal, when non-nil, records every NewVar/AddClause/AddPB so the
	// parallel portfolio can replay the deltas into its worker solvers
	// (they must mirror the base solver's variable numbering and clause
	// database exactly — assumption literals and bound circuits built
	// between SOLVE calls land in all workers this way).
	journal *journal

	// proof, when non-nil, receives the solver's inference trace — inputs,
	// learnt clauses, deletions, and refuted assumption sets — so an
	// independent checker can certify every Unsat verdict. Installed via
	// SetProofLogger on an empty sequential solver only.
	proof ProofLogger

	// lastCore holds the assumption core of the most recent Solve call
	// that returned Unsat under assumptions; nil when the last Unsat was
	// formula-level. See Core.
	lastCore []Lit

	Stats
}

// varInfo is one variable's search state.
type varInfo struct {
	reason reason // why the variable is assigned; noReason for decisions and root units
	level  int32  // decision level of the assignment
	pos    int32  // trail position of the assignment
	phase  bool   // saved phase: last assigned sign
	seen   byte   // conflict-analysis mark
}

// litOccs lists everything that assigning a literal true touches.
type litOccs struct {
	watches []watcher    // clauses watching the literal's falsification
	bins    []binWatcher // binary clauses whose other literal this falsification implies
	pbs     []pbWatch    // PB constraints with a term this assignment falsifies
}

// occSlab hands out the first slots of per-literal occurrence lists from
// shared chunks: filling the lists of a fresh formula would otherwise
// allocate each list two or three times as append grows it from empty. A
// window is capped at occWindow entries, so a list that outgrows it moves
// to a backing array of its own through append and never writes into a
// neighbour's window.
type occSlab[T any] struct{ free []T }

const (
	occWindow = 4
	occChunk  = 256 // windows per chunk
)

// add appends x to list, seating an empty list in a fresh window first.
func (sl *occSlab[T]) add(list []T, x T) []T {
	if cap(list) == 0 {
		if len(sl.free) < occWindow {
			sl.free = make([]T, occWindow*occChunk)
		}
		list = sl.free[:0:occWindow]
		sl.free = sl.free[occWindow:]
	}
	return append(list, x)
}

// The sequential solver's historical search constants; the parallel
// portfolio varies them per worker for diversification.
const (
	defaultVarDecay    = 0.95
	defaultRestartUnit = 100
)

// New returns an empty solver.
func New() *Solver {
	s := &Solver{
		ok:          true,
		varInc:      1.0,
		claInc:      1.0,
		maxLearnt:   4000,
		varDecay:    defaultVarDecay,
		restartUnit: defaultRestartUnit,

		stopEveryConflicts: stopCheckConflicts,
		stopEveryDecisions: stopCheckDecisions,
	}
	s.heap = newVarHeap(&s.activity)
	s.ca = newArena()
	s.pb = newPBStore()
	// Slot 0 is a sentinel so Var and Lit index directly.
	s.vals = make([]LBool, 2)
	s.vars = make([]varInfo, 1)
	s.activity = make([]float64, 1)
	s.occs = make([]litOccs, 2)
	return s
}

// NewVar allocates a fresh variable.
func (s *Solver) NewVar() Var {
	v := Var(len(s.vars))
	s.vals = append(s.vals, LUndef, LUndef)
	s.vars = append(s.vars, varInfo{phase: true}) // default polarity: try false first
	s.activity = append(s.activity, 0)
	s.occs = append(s.occs, litOccs{}, litOccs{})
	s.heap.push(v)
	s.Stats.NumVars++
	s.journal.recordVar()
	return v
}

// NumVariables returns the number of allocated variables.
func (s *Solver) NumVariables() int { return len(s.vars) - 1 }

//satlint:hotpath alloc-free
func (s *Solver) litValue(l Lit) LBool { return s.vals[l] }

func (s *Solver) decisionLevel() int32 { return int32(len(s.trailLim)) }

// Okay reports whether the formula is still possibly satisfiable (no
// top-level contradiction has been derived).
func (s *Solver) Okay() bool { return s.ok }

// ErrNotAtRoot is returned when constraints are added while the solver is
// not at decision level 0.
var ErrNotAtRoot = errors.New("sat: constraints must be added at decision level 0")

// AddClause adds a disjunction of literals. Adding an empty (or trivially
// falsified) clause makes the formula unsatisfiable. The literal slice is
// not retained.
func (s *Solver) AddClause(lits ...Lit) error {
	if s.proof != nil {
		// The logger sees a scratch copy: handing it lits would let the
		// caller's variadic argument escape, costing every AddClause call
		// a heap allocation even with no logger installed.
		s.litBuf = append(s.litBuf[:0], lits...)
		s.proof.ProofInput(s.litBuf)
	}
	return s.addClause(lits...)
}

// addClause is AddClause without the proof-input record, for internal
// paths (PB-to-clause conversion) whose originating constraint is already
// logged in another form.
func (s *Solver) addClause(lits ...Lit) error {
	if s.decisionLevel() != 0 {
		return ErrNotAtRoot
	}
	s.journal.recordClause(lits)
	if !s.ok {
		return nil
	}
	// Normalize in the scratch buffer: sort, drop duplicates and false
	// literals, detect tautologies and satisfied clauses. lits may itself
	// be the scratch buffer (AddPB's clause path); the append then copies
	// it onto itself.
	ls := append(s.litBuf[:0], lits...)
	s.litBuf = ls
	slices.Sort(ls)
	out := ls[:0]
	var prev Lit = LitUndef
	for _, l := range ls {
		if l.Var() <= 0 || int(l.Var()) >= len(s.vars) {
			return errors.New("sat: literal references unallocated variable")
		}
		switch {
		case s.litValue(l) == LTrue || l == prev.Not():
			return nil // satisfied or tautological
		case s.litValue(l) == LFalse || l == prev:
			continue // falsified at root, or duplicate
		}
		out = append(out, l)
		prev = l
	}
	switch len(out) {
	case 0:
		s.markRefuted()
		return nil
	case 1:
		s.uncheckedEnqueue(out[0], noReason)
		if !s.propagate().none() {
			s.markRefuted()
		}
		return nil
	}
	r := s.ca.alloc(out, false)
	s.attach(r)
	s.clauses = append(s.clauses, r)
	s.Stats.NumClauses++
	s.Stats.NumLiterals += int64(len(out))
	return nil
}

// AddPB adds the pseudo-Boolean constraint Σ terms ≥ bound. Terms may have
// arbitrary-sign coefficients and repeated variables; the constraint is
// normalized internally. The terms slice is not retained.
func (s *Solver) AddPB(terms []PBTerm, bound int64) error {
	if s.decisionLevel() != 0 {
		return ErrNotAtRoot
	}
	s.journal.recordPB(terms, bound)
	if !s.ok {
		return nil
	}
	for _, t := range terms {
		if t.Lit.Var() <= 0 || int(t.Lit.Var()) >= len(s.vars) {
			return errors.New("sat: PB term references unallocated variable")
		}
	}
	if s.proof != nil {
		// A scratch copy, for the reason AddClause gives.
		s.termBuf = append(s.termBuf[:0], terms...)
		s.proof.ProofInputPB(s.termBuf, bound)
	}
	norm, bnd, alwaysTrue, alwaysFalse := normalizePB(s.termBuf, terms, bound)
	s.termBuf = norm[:0]
	if alwaysTrue {
		return nil
	}
	if alwaysFalse {
		s.markRefuted()
		return nil
	}
	// A PB constraint whose coefficients are all ≥ bound is just a clause.
	// addClause skips the proof-input record: the constraint is already
	// logged in PB form, and the checker's propagation over it is exactly
	// clause propagation.
	if norm[len(norm)-1].Coef >= bnd {
		ls := s.litBuf[:0]
		for _, t := range norm {
			ls = append(ls, t.Lit)
		}
		s.litBuf = ls
		return s.addClause(ls...)
	}
	if uint64(len(s.pb.terms))+uint64(len(norm)) > math.MaxUint32 {
		panic("sat: PB store exceeds 32-bit term space")
	}
	id := pbID(len(s.pb.hdr))
	s.pb.hdr = append(s.pb.hdr, pbHeader{start: uint32(len(s.pb.terms)), n: uint32(len(norm)), bound: bnd})
	s.pb.terms = append(s.pb.terms, norm...)
	// Compute initial slack under the current (root-level) assignment and
	// register occurrence watches.
	slack := -bnd
	for _, t := range norm {
		if s.litValue(t.Lit) != LFalse {
			slack += t.Coef
		}
		// t.Lit is falsified when its negation is assigned true.
		o := &s.occs[t.Lit.Not()]
		o.pbs = s.pbSlab.add(o.pbs, pbWatch{coef: t.Coef, id: id})
	}
	s.pb.slack = append(s.pb.slack, slack)
	s.Stats.NumPB++
	s.Stats.NumLiterals += int64(len(norm))
	if slack < 0 {
		s.markRefuted()
		return nil
	}
	// Propagate any literal already forced at root level.
	for _, t := range s.pb.body(id) {
		if t.Coef > slack && s.litValue(t.Lit) == LUndef {
			s.uncheckedEnqueue(t.Lit, noReason)
		}
	}
	if !s.propagate().none() {
		s.markRefuted()
	}
	return nil
}

// AddAtMostOne adds the cardinality constraint "at most one of lits is
// true", a common building block of the one-hot allocation variables.
func (s *Solver) AddAtMostOne(lits ...Lit) error {
	terms := make([]PBTerm, len(lits))
	for i, l := range lits {
		terms[i] = PBTerm{Coef: 1, Lit: l.Not()}
	}
	return s.AddPB(terms, int64(len(lits)-1))
}

func (s *Solver) attach(r clauseRef) {
	ls := s.ca.lits(r)
	o0, o1 := &s.occs[ls[0].Not()], &s.occs[ls[1].Not()]
	if len(ls) == 2 {
		o0.bins = s.binSlab.add(o0.bins, binWatcher{other: ls[1], ref: r})
		o1.bins = s.binSlab.add(o1.bins, binWatcher{other: ls[0], ref: r})
		return
	}
	o0.watches = s.watchSlab.add(o0.watches, watcher{ref: r, blocker: ls[1]})
	o1.watches = s.watchSlab.add(o1.watches, watcher{ref: r, blocker: ls[0]})
}

//satlint:hotpath
func (s *Solver) uncheckedEnqueue(l Lit, from reason) {
	s.vals[l] = LTrue
	s.vals[l.Not()] = LFalse
	vi := &s.vars[l.Var()]
	vi.reason = from
	vi.level = s.decisionLevel()
	vi.pos = int32(len(s.trail))
	vi.phase = l.Sign()
	s.trail = append(s.trail, l)
}

// propagate performs unit propagation over clauses and PB constraints.
// It returns a conflicting reason, or noReason.
//
//satlint:hotpath
func (s *Solver) propagate() reason {
	for s.qhead < len(s.trail) {
		p := s.trail[s.qhead]
		s.qhead++
		s.Stats.Propagations++

		// occs does not grow during propagation, so o stays valid.
		o := &s.occs[p]

		// PB constraints: assigning p falsifies registered terms.
		for i, w := range o.pbs {
			slack := s.pb.falsify(w)
			if slack < 0 {
				// Finish updating the remaining occurrences of p so
				// backtracking stays balanced: cancelUntil adds back the
				// coefficient for every watch of p.
				for _, rest := range o.pbs[i+1:] {
					s.pb.falsify(rest)
				}
				return pbReason(w.id)
			}
			for _, t := range s.pb.body(w.id) {
				if t.Coef <= slack {
					break // sorted descending: nothing further can propagate
				}
				if s.litValue(t.Lit) == LUndef {
					s.uncheckedEnqueue(t.Lit, pbReason(w.id))
				}
			}
		}

		// Binary clauses first: falsifying p directly implies the other
		// literal, with no watcher-search loop and no watch movement.
		for _, w := range o.bins {
			switch s.litValue(w.other) {
			case LTrue:
			case LFalse:
				return clauseReason(w.ref)
			default:
				s.uncheckedEnqueue(w.other, clauseReason(w.ref))
			}
		}

		// Clause propagation with two watched literals. c aliases arena
		// storage; nothing in this loop grows the arena, so the slice
		// stays valid and in-place watch reordering writes through.
		ws := o.watches
		i, j := 0, 0
		conflict := noReason
	clauseLoop:
		for i < len(ws) {
			w := ws[i]
			i++
			if s.litValue(w.blocker) == LTrue {
				ws[j] = w
				j++
				continue
			}
			c := s.ca.lits(w.ref)
			// Ensure the falsified literal is c[1].
			if c[0] == p.Not() {
				c[0], c[1] = c[1], c[0]
			}
			if first := c[0]; s.litValue(first) == LTrue {
				ws[j] = watcher{ref: w.ref, blocker: first}
				j++
				continue
			}
			// Look for a new literal to watch.
			for k := 2; k < len(c); k++ {
				if s.litValue(c[k]) != LFalse {
					c[1], c[k] = c[k], c[1]
					// c[1] is not false, so its complement is not p and
					// this append never touches ws.
					no := &s.occs[c[1].Not()]
					no.watches = append(no.watches, watcher{ref: w.ref, blocker: c[0]})
					continue clauseLoop
				}
			}
			// No new watch: clause is unit or conflicting.
			ws[j] = watcher{ref: w.ref, blocker: c[0]}
			j++
			if s.litValue(c[0]) == LFalse {
				conflict = clauseReason(w.ref)
				// Copy remaining watchers back.
				for i < len(ws) {
					ws[j] = ws[i]
					j++
					i++
				}
				break
			}
			s.uncheckedEnqueue(c[0], clauseReason(w.ref))
		}
		o.watches = ws[:j]
		if !conflict.none() {
			return conflict
		}
	}
	return noReason
}

//satlint:hotpath
func (s *Solver) cancelUntil(lvl int32) {
	if s.decisionLevel() <= lvl {
		return
	}
	bound := s.trailLim[lvl]
	for i := int32(len(s.trail)) - 1; i >= bound; i-- {
		p := s.trail[i]
		v := p.Var()
		s.vals[p] = LUndef
		s.vals[p.Not()] = LUndef
		s.vars[v].reason = noReason
		// PB slack counters are only decremented when propagate dequeues a
		// literal, so only dequeued literals (position < qhead) are undone.
		if int(i) < s.qhead {
			for _, w := range s.occs[p].pbs {
				s.pb.restore(w)
			}
		}
		s.heap.push(v)
	}
	s.trail = s.trail[:bound]
	s.trailLim = s.trailLim[:lvl]
	s.qhead = len(s.trail)
}

func (s *Solver) bumpVar(v Var) {
	s.activity[v] += s.varInc
	if s.activity[v] > 1e100 {
		for i := range s.activity {
			s.activity[i] *= 1e-100
		}
		s.varInc *= 1e-100
	}
	s.heap.decreased(v)
}

func (s *Solver) bumpClause(r clauseRef) {
	act := s.ca.activity(r) + s.claInc
	s.ca.setActivity(r, act)
	if act > 1e20 {
		for _, l := range s.learnts {
			s.ca.setActivity(l, s.ca.activity(l)*1e-20)
		}
		s.claInc *= 1e-20
	}
}

// analyze performs first-UIP conflict analysis. It returns the learnt clause
// (asserting literal first) and the backjump level.
//
//satlint:hotpath
func (s *Solver) analyze(confl reason) ([]Lit, int32) {
	learnt := []Lit{LitUndef}
	counter := 0
	p := LitUndef
	idx := len(s.trail) - 1
	expl := s.explain(confl, LitUndef, 0, nil)
	cur := s.decisionLevel()

	for {
		if confl.isClause() && s.ca.learnt(confl.ref) {
			s.bumpClause(confl.ref)
		}
		for _, q := range expl {
			if q == p {
				continue
			}
			v := q.Var()
			if s.vars[v].seen == 0 && s.vars[v].level > 0 {
				s.vars[v].seen = 1
				s.bumpVar(v)
				if s.vars[v].level >= cur {
					counter++
				} else {
					learnt = append(learnt, q)
				}
			}
		}
		for s.vars[s.trail[idx].Var()].seen == 0 {
			idx--
		}
		p = s.trail[idx]
		idx--
		v := p.Var()
		s.vars[v].seen = 0
		counter--
		if counter == 0 {
			break
		}
		confl = s.vars[v].reason
		expl = s.explain(confl, p, int(s.vars[v].pos), expl[:0])
	}
	learnt[0] = p.Not()

	// One-step clause minimization: drop a literal whose reason is fully
	// subsumed by the rest of the learnt clause.
	toClear := append([]Lit(nil), learnt...)
	for _, q := range learnt[1:] {
		s.vars[q.Var()].seen = 1
	}
	kept := learnt[:1]
	for _, q := range learnt[1:] {
		r := s.vars[q.Var()].reason
		if r.none() || !s.redundant(q, r) {
			kept = append(kept, q)
		}
	}
	learnt = kept

	// Backjump to the second-highest level in the clause.
	bt := int32(0)
	if len(learnt) > 1 {
		maxI := 1
		for i := 2; i < len(learnt); i++ {
			if s.vars[learnt[i].Var()].level > s.vars[learnt[maxI].Var()].level {
				maxI = i
			}
		}
		learnt[1], learnt[maxI] = learnt[maxI], learnt[1]
		bt = s.vars[learnt[1].Var()].level
	}
	for _, q := range toClear {
		s.vars[q.Var()].seen = 0
	}
	return learnt, bt
}

// redundant reports whether literal q of a learnt clause is implied by the
// remaining marked literals through its reason (one resolution step).
func (s *Solver) redundant(q Lit, r reason) bool {
	expl := s.explain(r, q.Not(), int(s.vars[q.Var()].pos), nil)
	for _, l := range expl {
		if l == q.Not() {
			continue
		}
		v := l.Var()
		if s.vars[v].seen == 0 && s.vars[v].level > 0 {
			return false
		}
	}
	return true
}

func (s *Solver) computeLBD(lits []Lit) int {
	seen := map[int32]bool{}
	for _, l := range lits {
		seen[s.vars[l.Var()].level] = true
	}
	return len(seen)
}

// recordLearnt stores the learnt clause and returns its LBD (1 for unit
// clauses, which assert at the root).
func (s *Solver) recordLearnt(lits []Lit) int {
	s.Stats.LearntAdded++
	if s.proof != nil {
		s.proof.ProofLearn(lits)
	}
	if len(lits) == 1 {
		s.uncheckedEnqueue(lits[0], noReason)
		if s.shareExport != nil {
			s.shareExport(lits, 1)
		}
		return 1
	}
	r := s.ca.alloc(lits, true)
	lbd := s.computeLBD(lits)
	s.ca.setLBD(r, lbd)
	s.attach(r)
	s.learnts = append(s.learnts, r)
	s.bumpClause(r)
	s.uncheckedEnqueue(lits[0], clauseReason(r))
	if s.shareExport != nil {
		s.shareExport(lits, lbd)
	}
	return lbd
}

// reduceDB removes roughly half of the learnt clauses, keeping those that
// are reasons, binary, or recently active, then compacts the arena when
// freed clauses dominate it.
func (s *Solver) reduceDB() {
	sort.Slice(s.learnts, func(i, j int) bool {
		a, b := s.learnts[i], s.learnts[j]
		la, lb := s.ca.lbd(a), s.ca.lbd(b)
		if la != lb {
			return la > lb
		}
		return s.ca.activity(a) < s.ca.activity(b)
	})
	isReason := func(r clauseRef) bool {
		v := s.ca.lits(r)[0].Var()
		return s.vals[PosLit(v)] != LUndef && s.vars[v].reason == clauseReason(r)
	}
	kept := s.learnts[:0]
	limit := len(s.learnts) / 2
	for i, r := range s.learnts {
		if i < limit && s.ca.size(r) > 2 && !isReason(r) {
			s.detach(r)
			s.Stats.LearntPruned++
			if s.proof != nil {
				s.proof.ProofDelete(s.ca.lits(r))
			}
			s.ca.free(r)
			continue
		}
		kept = append(kept, r)
	}
	s.learnts = kept
	if s.ca.wasted*2 > len(s.ca.data) {
		s.compactArena()
	}
}

// detach removes r from its watch lists by swap-delete: the matching entry
// is overwritten with the last one and the list truncated, so removal is
// O(list length) with no shifting, on both the binary and the long list.
func (s *Solver) detach(r clauseRef) {
	ls := s.ca.lits(r)
	for _, wl := range [2]Lit{ls[0].Not(), ls[1].Not()} {
		o := &s.occs[wl]
		if len(ls) == 2 {
			o.bins = swapDelete(o.bins, func(w binWatcher) bool { return w.ref == r })
		} else {
			o.watches = swapDelete(o.watches, func(w watcher) bool { return w.ref == r })
		}
	}
}

// swapDelete removes the first element matching hit by overwriting it with
// the last one and truncating.
func swapDelete[T any](ws []T, hit func(T) bool) []T {
	for i, w := range ws {
		if hit(w) {
			ws[i] = ws[len(ws)-1]
			return ws[:len(ws)-1]
		}
	}
	return ws
}

//satlint:hotpath
func (s *Solver) pickBranchLit() Lit {
	for !s.heap.empty() {
		v := s.heap.pop()
		if s.vals[PosLit(v)] == LUndef {
			return MkLit(v, s.vars[v].phase)
		}
	}
	return LitUndef
}

// fireProgress invokes the OnProgress hook with a snapshot of the
// counters. Call sites sit outside the propagation loop by design.
func (s *Solver) fireProgress(event string) {
	if s.OnProgress == nil {
		return
	}
	s.OnProgress(Progress{
		Event:        event,
		Conflicts:    s.Stats.Conflicts,
		Decisions:    s.Stats.Decisions,
		Propagations: s.Stats.Propagations,
		Restarts:     s.Stats.Restarts,
		LearntAdded:  s.Stats.LearntAdded,
		LearntPruned: s.Stats.LearntPruned,
		Learnts:      len(s.learnts),
		TrailDepth:   len(s.trail),
	})
}

// Cancellation poll intervals: masks applied to the per-call conflict and
// cumulative decision counters. Polling sits on the conflict-analysis and
// decision paths (never inside propagation), so the overhead is one
// branch; the intervals keep Stop-callback cost (often a time syscall)
// negligible while bounding the reaction latency to well under a restart.
const (
	stopCheckConflicts = 64
	stopCheckDecisions = 8192
)

// stopRequested polls the Stop hook.
func (s *Solver) stopRequested() bool {
	return s.Stop != nil && s.Stop()
}

// luby returns the i-th element (1-based) of the Luby restart sequence.
func luby(i int64) int64 {
	for k := int64(1); ; k++ {
		if i == (int64(1)<<k)-1 {
			return int64(1) << (k - 1)
		}
		if i < (int64(1)<<k)-1 {
			return luby(i - (int64(1) << (k - 1)) + 1)
		}
	}
}

// Solve searches for a satisfying assignment under the given assumption
// literals. On Sat, Model reports variable values. On Unsat under non-empty
// assumptions, the formula itself may still be satisfiable.
func (s *Solver) Solve(assumptions ...Lit) Status {
	st := s.search(assumptions...)
	// The "done" event carries the call's final counter values, letting a
	// progress consumer (e.g. a metrics mirror) account for the conflicts
	// since the last restart boundary.
	s.fireProgress("done")
	return st
}

func (s *Solver) search(assumptions ...Lit) Status {
	s.lastCore = nil
	if !s.ok {
		return Unsat
	}
	s.cancelUntil(0)
	if !s.propagate().none() {
		s.markRefuted()
		return Unsat
	}

	faultinject.Fire(faultinject.SiteSatSolve)
	s.fireProgress("solve")
	if s.stopRequested() {
		s.cancelUntil(0)
		return Unknown
	}
	// Pull in clauses other portfolio workers shared since the last call
	// (no-op on a sequential solver).
	if s.shareSync != nil && !s.shareSync() {
		s.ok = false
		return Unsat
	}
	var conflictsThisCall int64
	restartNum := int64(1)
	conflictBudget := luby(restartNum) * s.restartUnit

	for {
		confl := s.propagate()
		if !confl.none() {
			s.Stats.Conflicts++
			conflictsThisCall++
			if s.decisionLevel() == 0 {
				s.markRefuted()
				return Unsat
			}
			learnt, bt := s.analyze(confl)
			backjump := int(s.decisionLevel() - bt)
			s.cancelUntil(bt)
			lbd := s.recordLearnt(learnt)
			if s.OnConflict != nil {
				s.OnConflict(lbd, backjump, len(learnt))
			}
			s.varInc /= s.varDecay
			s.claInc /= 0.999
			if float64(len(s.learnts)) >= s.maxLearnt {
				s.reduceDB()
				s.maxLearnt *= 1.3
				faultinject.Fire(faultinject.SiteSatReduce)
				s.fireProgress("reduce")
			}
			if conflictsThisCall >= conflictBudget {
				// Restart.
				s.Stats.Restarts++
				restartNum++
				conflictBudget = conflictsThisCall + luby(restartNum)*s.restartUnit
				s.cancelUntil(0)
				faultinject.Fire(faultinject.SiteSatRestart)
				s.fireProgress("restart")
				// Restart boundaries are the clause-exchange points of the
				// parallel portfolio: the solver is at level 0, so imported
				// clauses attach safely and a falsified import is a proof
				// of unsatisfiability.
				if s.shareSync != nil && !s.shareSync() {
					s.ok = false
					return Unsat
				}
				if s.stopRequested() {
					return Unknown
				}
			} else if conflictsThisCall%s.stopEveryConflicts == 0 && s.stopRequested() {
				s.cancelUntil(0)
				return Unknown
			}
			if s.MaxConflicts > 0 && conflictsThisCall > s.MaxConflicts {
				s.cancelUntil(0)
				return Unknown
			}
			continue
		}

		// Assumption decisions first.
		if int(s.decisionLevel()) < len(assumptions) {
			p := assumptions[s.decisionLevel()]
			switch s.litValue(p) {
			case LTrue:
				s.trailLim = append(s.trailLim, int32(len(s.trail)))
				continue
			case LFalse:
				// The conflict is assumption-level: record which
				// assumptions it traces back to, and — when logging — a
				// probe step certifying that the database plus the
				// assumption units propagate to a conflict.
				s.lastCore = s.analyzeFinal(p)
				if s.proof != nil {
					s.proof.ProofProbe(assumptions)
				}
				s.cancelUntil(0)
				return Unsat
			}
			s.trailLim = append(s.trailLim, int32(len(s.trail)))
			s.uncheckedEnqueue(p, noReason)
			continue
		}

		p := s.pickBranchLit()
		if p == LitUndef {
			// Full assignment: SAT.
			s.model = append(s.model[:0], s.vals...)
			s.cancelUntil(0)
			return Sat
		}
		s.Stats.Decisions++
		if s.Stats.Decisions%s.stopEveryDecisions == 0 && s.stopRequested() {
			s.cancelUntil(0)
			return Unknown
		}
		s.trailLim = append(s.trailLim, int32(len(s.trail)))
		s.uncheckedEnqueue(p, noReason)
	}
}

// Model returns the value of v in the last satisfying assignment. It is
// only meaningful after Solve returned Sat.
func (s *Solver) Model(v Var) bool {
	l := PosLit(v)
	if int(l) >= len(s.model) {
		return false
	}
	return s.model[l] == LTrue
}

// ModelLit reports whether literal l is true in the last model.
func (s *Solver) ModelLit(l Lit) bool {
	b := s.Model(l.Var())
	if l.Sign() {
		return !b
	}
	return b
}

// EnumerateModels invokes fn for each satisfying assignment, projected to
// the given variables: after each model a blocking clause over the
// projection is added, so at most one model per distinct projection is
// produced. Enumeration stops when fn returns false, when limit models
// have been produced (0 = no limit), or when the formula becomes
// unsatisfiable. The blocking clauses remain in the solver afterwards.
// It returns the number of models enumerated.
func (s *Solver) EnumerateModels(vars []Var, limit int, fn func(model map[Var]bool) bool) int {
	count := 0
	for limit == 0 || count < limit {
		if s.Solve() != Sat {
			return count
		}
		m := make(map[Var]bool, len(vars))
		blocking := make([]Lit, 0, len(vars))
		for _, v := range vars {
			val := s.Model(v)
			m[v] = val
			blocking = append(blocking, MkLit(v, val)) // negation of the model
		}
		count++
		if fn != nil && !fn(m) {
			return count
		}
		if len(blocking) == 0 {
			return count // empty projection: a single class
		}
		if err := s.AddClause(blocking...); err != nil {
			return count
		}
	}
	return count
}
