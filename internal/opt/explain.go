package opt

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"satalloc/internal/bv"
	"satalloc/internal/encode"
	"satalloc/internal/model"
	"satalloc/internal/obs"
	"satalloc/internal/proof"
	"satalloc/internal/sat"
)

// CoreReport explains an Infeasible verdict in the spec's own vocabulary:
// the constraint families (see encode.ConstraintGroup) that are jointly
// unsatisfiable. When Minimal is true the set is a minimal unsatisfiable
// subset — removing any single family makes the rest satisfiable — so every
// named entity genuinely participates in the conflict.
type CoreReport struct {
	// Feasible reports that the probe found the spec satisfiable after
	// all: there is nothing to explain. Groups is empty then.
	Feasible bool
	// Groups is the core, in encoding declaration order. Empty with
	// Feasible false means the infeasibility is independent of every
	// relaxable family (the ungrouped, definitional constraints already
	// conflict) — possible in principle, not produced by the current
	// encoder, which groups every model-level requirement.
	Groups []encode.ConstraintGroup
	// Minimal is true when deletion-based minimization ran to completion;
	// false when a conflict budget or cancellation stopped it early, in
	// which case Groups is still a correct (just possibly redundant) core.
	Minimal bool
	// SolveCalls counts the SAT probes spent extracting and minimizing.
	SolveCalls int
	Duration   time.Duration
	// Certificate carries the checked proof of every UNSAT probe of the
	// extraction when Options.Proof was set; nil otherwise.
	Certificate *proof.Certificate
}

// Names renders the core groups as "kind(entity)" strings.
func (r *CoreReport) Names() []string {
	names := make([]string, 0, len(r.Groups))
	for _, g := range r.Groups {
		names = append(names, g.Name())
	}
	return names
}

// String renders the report the way the CLI prints it:
// "infeasible: deadline(task7) + memory(ecu2) + routing(msg3)".
func (r *CoreReport) String() string {
	if r.Feasible {
		return "feasible: no core to extract"
	}
	if len(r.Groups) == 0 {
		return "infeasible: no relaxable constraint family is involved"
	}
	return "infeasible: " + strings.Join(r.Names(), " + ")
}

// dropRank orders core-minimization deletion attempts: lower ranks are
// tried (and thus discarded) first, so minimal cores prefer to speak in
// terms of placements and deadlines over the derived families when the
// conflict can be expressed either way.
func dropRank(k encode.GroupKind) int {
	switch k {
	case encode.GroupRouting:
		return 0
	case encode.GroupPriority:
		return 1
	case encode.GroupMemory:
		return 2
	case encode.GroupSeparation:
		return 3
	case encode.GroupDeadline:
		return 4
	default: // GroupPlacement
		return 5
	}
}

// ExplainInfeasible re-encodes the spec with selector-guarded constraint
// groups (encode.Options.Groups) and runs assumption-based core extraction:
// a first solve under all selectors yields a failed-assumption core, then
// deletion-based minimization shrinks it to a minimal unsatisfiable subset
// — each round drops one candidate family and re-solves, confirming the
// family when the rest turns satisfiable and discarding it (adopting the
// refined core) when the rest stays unsatisfiable.
//
// encOpts should be the options the infeasible solve used; Groups is forced
// on here. Extraction is always sequential (opts.Workers is ignored —
// assumption cores come from one solver's trail), honors
// opts.MaxConflictsPerCall per probe and opts.Ctx for cancellation, and
// with opts.Proof set additionally certifies every UNSAT probe through the
// internal checker.
func ExplainInfeasible(msys *model.System, encOpts encode.Options, opts Options) (*CoreReport, error) {
	sp := opts.Trace.Child("ExplainInfeasible")
	defer sp.End()
	start := time.Now()
	ctx := opts.Ctx
	if ctx == nil {
		ctx = context.Background()
	}

	encOpts.Groups = true
	encOpts.Trace = sp
	enc, err := encode.Encode(msys, encOpts)
	if err != nil {
		return nil, err
	}
	s := sat.New()
	var lg *proof.Log
	if opts.Proof {
		lg = proof.NewLog()
		if err := s.SetProofLogger(lg); err != nil {
			return nil, err
		}
		if opts.ObserveProof != nil {
			opts.ObserveProof(lg)
		}
	}
	sys, err := bv.CompileIntoWith(s, enc.F, bv.Options{Trace: sp})
	if err != nil {
		return nil, err
	}
	s.MaxConflicts = opts.MaxConflictsPerCall
	s.Stop = func() bool { return ctx.Err() != nil }
	s.OnProgress = obs.TeeProgress(opts.Progress,
		obs.MetricsProgress(opts.Metrics), obs.FlightProgress(opts.Recorder))
	s.OnConflict = opts.Metrics.ConflictHook()

	groups := enc.Groups()
	sels := make([]sat.Lit, len(groups))
	byVar := make(map[sat.Var]int, len(groups))
	for i, g := range groups {
		v := sys.BoolSolverVar(g.Sel)
		sels[i] = sat.PosLit(v)
		byVar[v] = i
	}

	report := &CoreReport{}
	// solveWith probes the conjunction of the given group families (all
	// other selectors left free, i.e. relaxed) and, on Unsat, maps the
	// solver's failed-assumption core back to group indices.
	solveWith := func(idxs []int) (sat.Status, []int) {
		report.SolveCalls++
		asm := make([]sat.Lit, len(idxs))
		for i, gi := range idxs {
			asm[i] = sels[gi]
		}
		st := sys.Solve(asm...)
		opts.Recorder.Record("core.explain", "probe %d: %d families → %s",
			report.SolveCalls, len(idxs), st)
		if st != sat.Unsat {
			return st, nil
		}
		var core []int
		for _, l := range s.Core() {
			if gi, ok := byVar[l.Var()]; ok {
				core = append(core, gi)
			}
		}
		sort.Ints(core)
		return st, core
	}

	// The utilization rows stay relaxed: the deadline and priority
	// families entail them, so leaving them out never turns an infeasible
	// spec feasible, and a core then names those primary families rather
	// than the derived row.
	all := make([]int, 0, len(groups))
	for i, g := range groups {
		if g.Kind != encode.GroupUtilization {
			all = append(all, i)
		}
	}
	st, work := solveWith(all)
	switch st {
	case sat.Sat:
		report.Feasible = true
		report.Duration = time.Since(start)
		sp.Attr("feasible", true)
		return report, nil
	case sat.Unknown:
		return nil, fmt.Errorf("opt: core extraction interrupted before the first verdict (budget/deadline/cancel)")
	}
	opts.logf("initial core: %d of %d families", len(work), len(groups))

	// Deletion order doubles as a preference order over explanations: when
	// the instance admits several minimal cores, a family whose deletion
	// is attempted earlier is probed against a larger remaining set and is
	// therefore more likely to be discarded. Trying auxiliary, derived
	// families (routing, priority, memory) first steers the surviving core
	// toward the spec's primary vocabulary (placement, deadline) whenever
	// a choice exists; the result is a true MUS either way.
	sortByDropPreference := func(idxs []int) {
		sort.SliceStable(idxs, func(a, b int) bool {
			ra, rb := dropRank(groups[idxs[a]].Kind), dropRank(groups[idxs[b]].Kind)
			if ra != rb {
				return ra < rb
			}
			return idxs[a] < idxs[b]
		})
	}
	sortByDropPreference(work)

	// Deletion-based minimization with core refinement. Necessity is
	// monotone under shrinking — if W\{w} is satisfiable then so is every
	// subset of it — so a family confirmed against an earlier, larger set
	// stays confirmed, and the loop keeps a confirmed prefix work[:i].
	minimal := true
	i := 0
loop:
	for i < len(work) {
		cand := make([]int, 0, len(work)-1)
		cand = append(cand, work[:i]...)
		cand = append(cand, work[i+1:]...)
		st, refined := solveWith(cand)
		switch st {
		case sat.Sat:
			// The rest is satisfiable without work[i]: necessary, confirmed.
			i++
		case sat.Unsat:
			// work[i] is redundant; adopt the refined core, keeping the
			// surviving confirmed families in front.
			inRef := make(map[int]bool, len(refined))
			for _, gi := range refined {
				inRef[gi] = true
			}
			next := make([]int, 0, len(refined))
			for _, gi := range work[:i] {
				if inRef[gi] {
					next = append(next, gi)
					delete(inRef, gi)
				}
			}
			confirmed := len(next)
			for _, gi := range refined {
				if inRef[gi] {
					next = append(next, gi)
				}
			}
			sortByDropPreference(next[confirmed:])
			work, i = next, confirmed
		case sat.Unknown:
			minimal = false
			break loop
		}
	}

	sort.Ints(work)
	report.Groups = make([]encode.ConstraintGroup, 0, len(work))
	for _, gi := range work {
		report.Groups = append(report.Groups, groups[gi])
	}
	report.Minimal = minimal
	report.Duration = time.Since(start)
	if opts.Proof {
		cert, err := proof.Certify(lg)
		if err != nil {
			return nil, fmt.Errorf("opt: core-extraction proof check failed: %w", err)
		}
		report.Certificate = cert
	}
	sp.Attr("core", len(report.Groups)).Attr("minimal", minimal).
		Attr("solve_calls", report.SolveCalls)
	opts.Metrics.RecordCoreExplain(len(report.Groups), report.SolveCalls,
		report.Duration, minimal)
	opts.Recorder.Record("core.explain", "%s (minimal=%v, %d probes, %s)",
		report, minimal, report.SolveCalls, report.Duration)
	opts.logf("%s", report)
	return report, nil
}
