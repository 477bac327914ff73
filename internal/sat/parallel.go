package sat

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"

	"satalloc/internal/faultinject"
)

// This file implements the clause-sharing parallel CDCL portfolio
// (ManySAT/HordeSat-style): N diversified workers race each Solve call on
// identical copies of the formula, exchanging low-LBD learnt clauses
// through a bounded pool. The first definitive verdict (Sat or Unsat)
// cancels the rest via the Stop machinery; the winner's model is copied
// into the base solver so existing decode paths keep working unchanged.
//
// Soundness: with assumptions handled as decisions (as this solver does),
// every learnt clause is entailed by the clause database alone — the
// negations of the assumption literals it depends on appear in the clause
// itself — so a clause learnt by any worker is valid in every other
// worker, which carries an identical database. Imports happen only at
// decision level 0 (Solve entry and restart boundaries), where attaching,
// unit-enqueueing, or deriving the empty clause are all safe.

// CloneAtRoot returns a fresh solver with the same variables, problem
// clauses, PB constraints, and root-level facts as s. Learnt clauses,
// activities, and saved phases are not copied — a clone starts its own
// search from scratch — which is exactly what the portfolio's diversified
// workers want. The solver must be at decision level 0.
//
// The root state is copied wholesale rather than replayed through
// AddClause/AddPB: the assignment, trail and propagation head, the clause
// arena verbatim, the watch lists with the learnt entries dropped, and
// the PB store with its root-level slacks. Copying the arena word for word
// keeps every problem clause at its ref, so no watcher is remapped; the
// learnt clauses' words stay behind as garbage, counted as wasted, and the
// clone's first compaction reclaims them. The clone's root facts carry no
// reason — a reason may name a learnt clause the clone does not keep, and
// conflict analysis never reads the reason of a root-level literal.
func (s *Solver) CloneAtRoot() (*Solver, error) {
	if s.decisionLevel() != 0 {
		return nil, ErrNotAtRoot
	}
	c := New()
	n := len(s.vars)
	c.vals = slices.Clone(s.vals)
	c.vars = make([]varInfo, n)
	for v := 1; v < n; v++ {
		c.vars[v].phase = true
	}
	c.activity = make([]float64, n)
	c.heap.heap = make([]Var, 0, n)
	c.heap.indices = make([]int32, 0, n)
	for v := 1; v < n; v++ {
		c.heap.push(Var(v))
	}
	c.occs = make([]litOccs, len(s.occs))
	c.Stats.NumVars = s.Stats.NumVars
	c.MaxConflicts = s.MaxConflicts
	if !s.ok {
		c.ok = false
		return c, nil
	}
	c.trail = slices.Clone(s.trail)
	c.qhead = s.qhead
	for _, p := range s.trail {
		c.vars[p.Var()] = varInfo{pos: s.vars[p.Var()].pos, phase: p.Sign()}
	}

	c.ca.data = slices.Clone(s.ca.data)
	c.ca.wasted = s.ca.wasted
	for _, r := range s.learnts {
		c.ca.free(r)
	}
	c.clauses = slices.Clone(s.clauses)
	// Every copied list is carved out of one backing array per kind and
	// capped at its length, so the clone's first append to a list moves
	// that list alone.
	var nw, nb, np int
	for l := range s.occs {
		nw += len(s.occs[l].watches)
		nb += len(s.occs[l].bins)
		np += len(s.occs[l].pbs)
	}
	wbuf := make([]watcher, 0, nw)
	bbuf := make([]binWatcher, 0, nb)
	pbuf := make([]pbWatch, 0, np)
	for l := range s.occs {
		so, co := &s.occs[l], &c.occs[l]
		start := len(wbuf)
		for _, w := range so.watches {
			if !s.ca.learnt(w.ref) {
				wbuf = append(wbuf, w)
			}
		}
		co.watches = wbuf[start:len(wbuf):len(wbuf)]
		start = len(bbuf)
		for _, w := range so.bins {
			if !s.ca.learnt(w.ref) {
				bbuf = append(bbuf, w)
			}
		}
		co.bins = bbuf[start:len(bbuf):len(bbuf)]
		start = len(pbuf)
		pbuf = append(pbuf, so.pbs...)
		co.pbs = pbuf[start:len(pbuf):len(pbuf)]
	}
	c.pb = pbStore{
		hdr:   slices.Clone(s.pb.hdr),
		terms: slices.Clone(s.pb.terms),
		slack: slices.Clone(s.pb.slack),
	}
	c.Stats.NumClauses = s.Stats.NumClauses
	c.Stats.NumPB = s.Stats.NumPB
	c.Stats.NumLiterals = s.Stats.NumLiterals
	return c, nil
}

// addSharedAtRoot integrates a clause learnt by another portfolio worker.
// The solver must be at decision level 0. It reports whether the clause
// was actually taken (false: satisfied at root or out of range) and
// whether the solver is still alive (false: the import derived a root
// conflict, proving the formula unsatisfiable).
func (s *Solver) addSharedAtRoot(lits []Lit, lbd int) (imported, alive bool) {
	if !s.ok {
		return false, false
	}
	out := s.litBuf[:0]
	for _, l := range lits {
		if l.Var() <= 0 || int(l.Var()) >= len(s.vars) {
			// Cannot happen when workers are synced before each race;
			// defensively skip rather than corrupt the database.
			return false, true
		}
		switch s.litValue(l) {
		case LTrue:
			return false, true // already satisfied at root
		case LFalse:
			continue // falsified at root: drop the literal
		}
		out = append(out, l)
	}
	s.litBuf = out
	switch len(out) {
	case 0:
		s.ok = false
		return true, false
	case 1:
		s.uncheckedEnqueue(out[0], noReason)
		if !s.propagate().none() {
			s.ok = false
			return true, false
		}
		return true, true
	}
	if lbd < 1 {
		lbd = 1
	}
	if lbd > len(out) {
		lbd = len(out)
	}
	r := s.ca.alloc(out, true)
	s.ca.setLBD(r, lbd)
	s.attach(r)
	s.learnts = append(s.learnts, r)
	s.Stats.LearntAdded++
	return true, true
}

// sharedClause is one clause in the exchange pool.
type sharedClause struct {
	src  int // exporting worker; importers skip their own clauses
	lbd  int
	lits []Lit // immutable once published
}

// exchange is the bounded clause pool connecting the workers. Workers only
// touch its mutex at restart boundaries (the hot loop appends to a
// worker-local outbox instead), so contention is O(restarts), not
// O(conflicts). The pool is a ring: when full, the oldest clauses are
// overwritten and slow readers count the overwritten range as filtered.
type exchange struct {
	//satlint:lock sat.ringpool
	mu   sync.Mutex
	ring []sharedClause
	cap  int
	seq  int64 // total clauses ever published

	exported atomic.Int64
	imported atomic.Int64
	filtered atomic.Int64
}

// put publishes one clause into the ring; the caller batches puts under
// a single lock acquisition.
//
//satlint:locks sat.ringpool
func (ex *exchange) put(c sharedClause) {
	if len(ex.ring) < ex.cap {
		ex.ring = append(ex.ring, c)
	} else {
		ex.ring[ex.seq%int64(ex.cap)] = c
	}
	ex.seq++
}

// pworker is one portfolio worker: its solver plus its exchange state.
type pworker struct {
	s      *Solver
	outbox []sharedClause // filled by shareExport, flushed under ex.mu
	next   int64          // next exchange seq to import
	dead   bool           // panicked mid-search; excluded from future races
}

// ParallelOptions configures NewParallel. The zero value of every field
// except Workers picks a sensible default.
type ParallelOptions struct {
	// Workers is the portfolio size, including the base solver; must be
	// ≥ 2 (a 1-worker portfolio is just the sequential solver — callers
	// should not construct one).
	Workers int
	// ShareLBDMax bounds the literal block distance of exported learnt
	// clauses (default 4): only high-quality clauses travel.
	ShareLBDMax int
	// ShareLenMax bounds the length of exported clauses (default 32).
	ShareLenMax int
	// PoolCap bounds the exchange ring (default 4096 clauses).
	PoolCap int
	// OutboxCap bounds each worker's between-restarts export buffer
	// (default 256 clauses); overflow counts as filtered.
	OutboxCap int
	// Seed diversifies the workers' randomized polarity initialization.
	Seed int64
	// Stop, when set, cancels the whole race (all workers poll it through
	// their Stop hooks). Defaults to the base solver's Stop at NewParallel
	// time, so a context wired before construction keeps working.
	Stop func() bool
	// OnWorkerStart, when set, is invoked on the worker's goroutine as its
	// race leg begins.
	OnWorkerStart func(worker int)
	// OnWorkerDone, when set, is invoked on the worker's goroutine as its
	// race leg ends: its verdict, this call's counter deltas, whether it
	// won the race, and the recovered panic value if it died (nil
	// otherwise). A panicked worker is excluded from future races.
	OnWorkerDone func(worker int, st Status, delta Stats, winner bool, recovered any)
}

// ParallelStats is a point-in-time snapshot of the portfolio's sharing
// counters.
type ParallelStats struct {
	Workers int
	// Exported counts clauses published to the pool; Imported counts
	// successful integrations by other workers; Filtered counts clauses
	// dropped on either side (LBD/length threshold, outbox or pool
	// overflow, satisfied at the importer's root).
	Exported, Imported, Filtered int64
	// LastWinner is the worker that decided the most recent Solve call
	// (-1 before the first call or after an all-Unknown race).
	LastWinner int
	// DeadWorkers counts workers lost to contained panics.
	DeadWorkers int
}

// diversification is the per-worker search configuration table. Worker 0
// is the untouched reference configuration; worker i ≥ 1 takes entry
// (i-1) mod len. phase: 0 keeps the default polarity (try false first),
// 1 inverts it (try true first), 2 randomizes it per variable.
var diversification = []struct {
	decay float64
	unit  int64
	phase int
}{
	{0.90, 100, 1},
	{0.97, 50, 2},
	{0.85, 200, 0},
	{0.99, 150, 2},
	{0.92, 75, 1},
	{0.95, 300, 2},
	{0.88, 100, 2},
}

func diversify(w *Solver, i int, seed int64) {
	d := diversification[(i-1)%len(diversification)]
	w.varDecay = d.decay
	w.restartUnit = d.unit
	switch d.phase {
	case 1:
		for v := range w.vars {
			w.vars[v].phase = false
		}
	case 2:
		rng := rand.New(rand.NewSource(seed + int64(i)))
		for v := range w.vars {
			w.vars[v].phase = rng.Intn(2) == 1
		}
	}
}

// ParallelSolver races N diversified CDCL workers over one formula,
// exchanging low-LBD learnt clauses. It presents the same incremental
// surface the optimizer uses on a plain Solver: AddClause/AddPB between
// Solve calls (forwarded to every worker via the base solver's journal),
// Solve under assumptions, and the winning model readable through the
// base solver. Construct with NewParallel; use from one goroutine.
type ParallelSolver struct {
	base *Solver
	ws   []*pworker
	ex   *exchange
	opts ParallelOptions

	stopRace   atomic.Bool
	winnerIdx  atomic.Int32
	results    []Status
	lastWinner int
	err        error
}

// NewParallel wraps base — which must be at decision level 0 — into a
// portfolio of opts.Workers solvers. base itself becomes worker 0 (the
// reference configuration, keeping any hooks already installed on it);
// the other workers are clones with diversified decay/restart/polarity
// configurations. Mutations made directly on base after this call (e.g.
// lazily built assumption circuits) are journaled and replayed into every
// worker before the next race.
func NewParallel(base *Solver, opts ParallelOptions) (*ParallelSolver, error) {
	if opts.Workers < 2 {
		return nil, errors.New("sat: parallel portfolio needs at least 2 workers")
	}
	if base.decisionLevel() != 0 {
		return nil, ErrNotAtRoot
	}
	if base.proof != nil {
		return nil, errors.New("sat: proof logging is incompatible with the parallel portfolio (shared clauses are not RUP in the importer's log); use a sequential solver")
	}
	if opts.ShareLBDMax <= 0 {
		opts.ShareLBDMax = 4
	}
	if opts.ShareLenMax <= 0 {
		opts.ShareLenMax = 32
	}
	if opts.PoolCap <= 0 {
		opts.PoolCap = 4096
	}
	if opts.OutboxCap <= 0 {
		opts.OutboxCap = 256
	}
	if opts.Stop == nil {
		opts.Stop = base.Stop
	}
	p := &ParallelSolver{
		base:       base,
		ex:         &exchange{cap: opts.PoolCap},
		opts:       opts,
		results:    make([]Status, opts.Workers),
		lastWinner: -1,
	}
	p.winnerIdx.Store(-1)
	for i := 0; i < opts.Workers; i++ {
		var s *Solver
		if i == 0 {
			s = base
		} else {
			var err error
			s, err = base.CloneAtRoot()
			if err != nil {
				return nil, fmt.Errorf("sat: cloning portfolio worker %d: %w", i, err)
			}
			diversify(s, i, opts.Seed)
		}
		// Race workers poll Stop far more often than a solo solver: a
		// loser's work after the winner's verdict is pure waste, and on
		// shared cores it directly delays the portfolio's wall clock.
		s.stopEveryConflicts = 4
		s.stopEveryDecisions = 256
		w := &pworker{s: s}
		p.ws = append(p.ws, w)
		p.wireSharing(i, w)
	}
	// Start journaling only now: everything before this point is already
	// in every clone.
	base.journal = NewBatch(base)
	return p, nil
}

// wireSharing installs the export/import hooks connecting worker i to the
// exchange.
func (p *ParallelSolver) wireSharing(i int, w *pworker) {
	ex := p.ex
	w.s.shareExport = func(lits []Lit, lbd int) {
		if lbd > p.opts.ShareLBDMax || len(lits) > p.opts.ShareLenMax {
			ex.filtered.Add(1)
			return
		}
		if len(w.outbox) >= p.opts.OutboxCap {
			ex.filtered.Add(1)
			return
		}
		w.outbox = append(w.outbox, sharedClause{src: i, lbd: lbd, lits: append([]Lit(nil), lits...)})
	}
	w.s.shareSync = func() bool {
		var incoming []sharedClause
		ex.mu.Lock()
		for _, c := range w.outbox {
			ex.put(c)
		}
		ex.exported.Add(int64(len(w.outbox)))
		w.outbox = w.outbox[:0]
		if oldest := ex.seq - int64(len(ex.ring)); w.next < oldest {
			ex.filtered.Add(oldest - w.next) // overwritten before this worker read them
			w.next = oldest
		}
		for q := w.next; q < ex.seq; q++ {
			c := ex.ring[q%int64(ex.cap)]
			if c.src != i {
				incoming = append(incoming, c)
			}
		}
		w.next = ex.seq
		ex.mu.Unlock()
		alive := true
		var took int64
		for _, c := range incoming {
			imported, ok := w.s.addSharedAtRoot(c.lits, c.lbd)
			if imported {
				took++
			} else {
				ex.filtered.Add(1)
			}
			if !ok {
				alive = false
				break
			}
		}
		ex.imported.Add(took)
		return alive
	}
}

// sync loads the base-solver mutations recorded since the last race into
// every live worker and propagates the per-call conflict budget.
func (p *ParallelSolver) sync() error {
	j := p.base.journal
	for i, w := range p.ws {
		if i == 0 || w.dead {
			continue
		}
		if err := w.s.Load(j); err != nil {
			return fmt.Errorf("sat: loading the journal into portfolio worker %d: %w", i, err)
		}
		w.s.MaxConflicts = p.base.MaxConflicts
	}
	// Every live worker is now at the same point; dead workers never race
	// again, so the journal can start over.
	j.Reset(p.base)
	return nil
}

// AddClause forwards to the base solver; the journal carries the clause
// into every worker before the next race.
func (p *ParallelSolver) AddClause(lits ...Lit) error { return p.base.AddClause(lits...) }

// AddPB forwards to the base solver; the journal carries the constraint
// into every worker before the next race.
func (p *ParallelSolver) AddPB(terms []PBTerm, bound int64) error { return p.base.AddPB(terms, bound) }

// Err reports a portfolio-infrastructure failure (worker sync), distinct
// from search outcomes. Solve returns Unknown when it sets this.
func (p *ParallelSolver) Err() error { return p.err }

// Solve races all live workers on the formula under the given assumptions
// and returns the first definitive verdict, cancelling the losers. On Sat
// the winner's model is copied into the base solver, so Model/ModelLit on
// the base (and any decoder reading it) see the winning assignment.
// Unknown means every worker was interrupted (budget, Stop, or a
// contained panic) before a verdict.
func (p *ParallelSolver) Solve(assumptions ...Lit) Status {
	if err := p.sync(); err != nil {
		p.err = err
		return Unknown
	}
	p.stopRace.Store(false)
	p.winnerIdx.Store(-1)
	raceStop := func() bool {
		return p.stopRace.Load() || (p.opts.Stop != nil && p.opts.Stop())
	}
	var wg sync.WaitGroup
	for i, w := range p.ws {
		if w.dead {
			p.results[i] = Unknown
			continue
		}
		w.s.Stop = raceStop
		pre := w.s.Stats
		wg.Add(1)
		go func(i int, w *pworker) {
			defer wg.Done()
			st := Unknown
			var recovered any
			func() {
				defer func() {
					if r := recover(); r != nil {
						recovered = r
						st = Unknown
					}
				}()
				if p.opts.OnWorkerStart != nil {
					p.opts.OnWorkerStart(i)
				}
				faultinject.Fire(faultinject.SiteSatParallelWorker)
				st = w.s.Solve(assumptions...)
			}()
			if recovered != nil {
				// The solver may have been unwound mid-search; never race
				// or sync it again.
				w.dead = true
			}
			won := false
			if st != Unknown && p.winnerIdx.CompareAndSwap(-1, int32(i)) {
				won = true
				p.stopRace.Store(true)
			}
			p.results[i] = st
			if p.opts.OnWorkerDone != nil {
				p.opts.OnWorkerDone(i, st, statsDelta(w.s.Stats, pre), won, recovered)
			}
		}(i, w)
	}
	wg.Wait()
	wi := int(p.winnerIdx.Load())
	p.lastWinner = wi
	if wi < 0 {
		return Unknown
	}
	st := p.results[wi]
	if st == Sat && wi != 0 {
		p.base.model = append(p.base.model[:0], p.ws[wi].s.model...)
	}
	return st
}

// statsDelta subtracts the cumulative counters (the structural fields —
// clause/var counts — are copied from cur).
func statsDelta(cur, pre Stats) Stats {
	cur.Decisions -= pre.Decisions
	cur.Propagations -= pre.Propagations
	cur.Conflicts -= pre.Conflicts
	cur.Restarts -= pre.Restarts
	cur.LearntAdded -= pre.LearntAdded
	cur.LearntPruned -= pre.LearntPruned
	return cur
}

// TotalStats sums the search counters of every worker (the structural
// counts — clauses, PB constraints, variables, literals — are the base
// solver's, since all workers carry the same formula).
func (p *ParallelSolver) TotalStats() Stats {
	t := p.base.Stats
	for _, w := range p.ws[1:] {
		t.Decisions += w.s.Stats.Decisions
		t.Propagations += w.s.Stats.Propagations
		t.Conflicts += w.s.Stats.Conflicts
		t.Restarts += w.s.Stats.Restarts
		t.LearntAdded += w.s.Stats.LearntAdded
		t.LearntPruned += w.s.Stats.LearntPruned
	}
	return t
}

// Snapshot returns the portfolio's sharing counters.
func (p *ParallelSolver) Snapshot() ParallelStats {
	dead := 0
	for _, w := range p.ws {
		if w.dead {
			dead++
		}
	}
	return ParallelStats{
		Workers:     len(p.ws),
		Exported:    p.ex.exported.Load(),
		Imported:    p.ex.imported.Load(),
		Filtered:    p.ex.filtered.Load(),
		LastWinner:  p.lastWinner,
		DeadWorkers: dead,
	}
}

// Workers returns the portfolio size.
func (p *ParallelSolver) Workers() int { return len(p.ws) }
