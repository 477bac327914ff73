// Package encode transforms a task allocation problem into a Boolean
// combination of integer (in)equations, implementing §3 (task constraints,
// eq. 4–13) and §4 (hierarchical message routing via path closures, local
// deadlines, and jitter) of Metzner et al. (IPDPS 2006), plus the
// objective encodings used in the paper's evaluation (token rotation time,
// Σ TRT over all media, bus utilization).
//
// The output is an ir.Formula with one designated cost variable; package
// opt bit-blasts it and runs the paper's binary search.
package encode

import (
	"fmt"
	"slices"

	"satalloc/internal/ir"
	"satalloc/internal/model"
	"satalloc/internal/obs"
)

// Objective selects the cost function to minimize.
type Objective int

// Available objectives.
const (
	// MinimizeTRT minimizes the token rotation time (round length) of a
	// single token-ring medium — the objective of Table 1, row 1.
	MinimizeTRT Objective = iota
	// MinimizeSumTRT minimizes the sum of round lengths over all
	// token-ring media — the objective of Table 4.
	MinimizeSumTRT
	// MinimizeBusUtilization minimizes the utilization (in ‰) of a
	// designated medium — the U_CAN objective of Table 1, row 2.
	MinimizeBusUtilization
	// MinimizeMaxECUUtilization minimizes the maximum CPU utilization (in
	// ‰) over all ECUs — the "difference to the average utilization"
	// balancing objective sketched at the end of §4.
	MinimizeMaxECUUtilization
	// MinimizeUsedECUs minimizes the number of ECUs that host at least one
	// task — a consolidation objective (an extension; §4 notes arbitrary
	// cost functions can be plugged in).
	MinimizeUsedECUs
)

func (o Objective) String() string {
	switch o {
	case MinimizeTRT:
		return "min-TRT"
	case MinimizeSumTRT:
		return "min-ΣTRT"
	case MinimizeBusUtilization:
		return "min-bus-util"
	case MinimizeMaxECUUtilization:
		return "min-max-ecu-util"
	case MinimizeUsedECUs:
		return "min-used-ecus"
	}
	return "unknown"
}

// Options configures the encoding.
type Options struct {
	Objective Objective
	// ObjectiveMedium designates the medium for MinimizeTRT and
	// MinimizeBusUtilization; -1 picks the first medium of matching kind.
	ObjectiveMedium int
	// Trace, when set, is the parent span under which Encode records its
	// work. Nil disables tracing.
	Trace *obs.Span
	// Groups, when set, guards every model-level constraint family behind
	// a named selector variable (see ConstraintGroup): solving under the
	// assumption "all selectors true" reproduces the plain encoding, and
	// unsat-core extraction over the selectors names the families an
	// infeasibility traces to. Off by default — the guarded formula is
	// strictly larger, so the normal solve path never pays for it.
	Groups bool
}

// Encoding is the result of the transformation: the formula, the cost
// variable, and the decision-variable tables needed to decode a model back
// into a model.Allocation.
type Encoding struct {
	Sys  *model.System
	Opts Options
	F    *ir.Formula
	Cost *ir.IntVar

	// alloc[t][p] ⇔ (a_t = p); candidate ECUs only.
	alloc map[int]map[int]*ir.BoolVar
	// tie[t1][t2] (t1 < t2) ⇔ "t1 has higher priority than t2" for
	// deadline ties.
	tie map[[2]int]*ir.BoolVar
	// route[m][pathIndex] ⇔ message m uses candidate path pathIndex.
	route map[int]map[int]*ir.BoolVar
	// paths[m] lists the candidate paths of message m (indices match
	// route[m]).
	paths map[int][]model.Path
	// used[m][k] ⇔ K^k_m: message m crosses medium k.
	used map[int]map[int]*ir.BoolVar
	// localDL[m][k] = d^k_m.
	localDL map[int]map[int]*ir.IntVar
	// slot[k][p] = TDMA slot length of ECU p on medium k (quanta ×
	// SlotQuantum applied at decode).
	slot map[int]map[int]*ir.IntVar
	// station[m][k][p] ⇔ message m enters medium k at ECU p.
	station map[int]map[int]map[int]*ir.BoolVar

	// prioConst caches the compile-time priority relation: +1 if i outranks
	// j surely, -1 if j outranks i surely, 0 if tied (decided by tie var).
	prioCmp func(i, j int) int

	respByTask map[int]*ir.IntVar
	wcetVars   map[int]*ir.IntVar
	ceils      []ceilEntry
	jitters    map[[2]int]*ir.IntVar

	// Constraint-group bookkeeping (see groups.go): groupOf[i] is the
	// index into groups owning F.Asserts[i], or -1 for definitional
	// constraints outside any group; cur is where req files new asserts.
	groups     []ConstraintGroup
	groupIdx   map[string]int
	groupOf    []int
	linGroupOf []int // likewise for F.Linear
	cur        int
}

// sameECULit returns the formula "Π(t1) = Π(t2)" over the one-hot
// allocation variables.
func (e *Encoding) sameECULit(t1, t2 int) ir.BoolExpr {
	var opts []ir.BoolExpr
	for _, p := range sortedKeysB(e.alloc[t1]) {
		if v2, ok := e.alloc[t2][p]; ok {
			opts = append(opts, ir.And(e.alloc[t1][p], v2))
		}
	}
	return ir.Or(opts...)
}

// higherPrio returns the formula "task hi outranks task lo" (p^hi_lo = 1).
func (e *Encoding) higherPrio(hi, lo int) ir.BoolExpr {
	switch e.prioCmp(hi, lo) {
	case 1:
		return ir.True()
	case -1:
		return ir.False()
	}
	if hi < lo {
		return e.tie[[2]int{hi, lo}]
	}
	return ir.NotE(e.tie[[2]int{lo, hi}])
}

// Encode builds the complete constraint system.
func Encode(sys *model.System, opts Options) (*Encoding, error) {
	sp := opts.Trace.Child("Encode")
	defer sp.End()
	if err := sys.Validate(); err != nil {
		return nil, err
	}
	e := &Encoding{
		Sys:     sys,
		Opts:    opts,
		F:       ir.NewFormula(),
		alloc:   map[int]map[int]*ir.BoolVar{},
		tie:     map[[2]int]*ir.BoolVar{},
		route:   map[int]map[int]*ir.BoolVar{},
		paths:   map[int][]model.Path{},
		used:    map[int]map[int]*ir.BoolVar{},
		localDL: map[int]map[int]*ir.IntVar{},
		slot:    map[int]map[int]*ir.IntVar{},
		station: map[int]map[int]map[int]*ir.BoolVar{},

		groupIdx: map[string]int{},
		cur:      -1,
	}
	e.prioCmp = func(i, j int) int {
		ti, tj := sys.TaskByID(i), sys.TaskByID(j)
		switch {
		case ti.Deadline < tj.Deadline:
			return 1
		case ti.Deadline > tj.Deadline:
			return -1
		}
		return 0
	}
	if err := e.encodeAllocation(); err != nil {
		return nil, err
	}
	if err := e.encodeTaskTiming(); err != nil {
		return nil, err
	}
	e.encodeUtilization()
	if err := e.encodeRouting(); err != nil {
		return nil, err
	}
	if err := e.encodeSlots(); err != nil {
		return nil, err
	}
	if err := e.encodeMessageTiming(); err != nil {
		return nil, err
	}
	if err := e.encodeObjective(); err != nil {
		return nil, err
	}
	if opts.Groups {
		e.applySelectors()
	}
	sp.Attr("int_vars", len(e.F.IntVars)).Attr("bool_vars", len(e.F.BoolVars)).
		Attr("objective", opts.Objective.String()).Attr("groups", len(e.groups))
	return e, nil
}

// encodeAllocation creates the one-hot allocation variables and the
// placement/redundancy constraints of eq. (4), plus the deadline-tie
// priority variables of eq. (9)–(10). With one-hot variables, "a_i ≠ p" for
// p ∉ π_i is realized by never creating the variable.
func (e *Encoding) encodeAllocation() error {
	for _, t := range e.Sys.Tasks {
		cands := e.Sys.CandidateECUs(t)
		// An ECU whose WCET already exceeds the deadline can never host
		// the task feasibly; prune it (the response-time constraints would
		// exclude it anyway).
		var feasible []int
		for _, p := range cands {
			if t.WCET[p]+t.Blocking+t.Jitter <= t.Deadline {
				feasible = append(feasible, p)
			}
		}
		if len(feasible) == 0 {
			// Every candidate already misses the deadline on WCET alone:
			// the instance is trivially infeasible. Keep the variables (so
			// the rest of the encoding stays well-formed) but pin the
			// formula to false — SOLVE then reports the infeasibility,
			// which is the answer the caller asked for.
			feasible = cands
			// The impossibility is deadline-driven (WCET vs. deadline), so
			// the core names the task's deadline family, not its placement.
			e.begin(GroupDeadline, t.Name)
			e.req(ir.False())
		}
		vars := map[int]*ir.BoolVar{}
		var lits []ir.BoolExpr
		for _, p := range feasible {
			v := e.F.Bool(fmt.Sprintf("a[%s]=%d", t.Name, p))
			vars[p] = v
			lits = append(lits, v)
		}
		e.alloc[t.ID] = vars
		// Exactly one ECU.
		e.begin(GroupPlacement, t.Name)
		e.req(ir.Or(lits...))
		for i := 0; i < len(feasible); i++ {
			for j := i + 1; j < len(feasible); j++ {
				e.req(ir.NotE(ir.And(vars[feasible[i]], vars[feasible[j]])))
			}
		}
	}
	// Redundancy: δ_i tasks must not share an ECU (second conjunct of
	// eq. 4). Either task of a pair may list it; each unordered pair is
	// emitted once, at its lower-ID task, so its group reads (lower,
	// higher). A pair listed only on its higher-ID task joins the lower
	// task's own list at its end.
	partners := map[int][]int{}
	for _, t := range e.Sys.Tasks {
		for _, other := range t.Separation {
			if other > t.ID {
				partners[t.ID] = append(partners[t.ID], other)
			}
		}
	}
	for _, t := range e.Sys.Tasks {
		for _, other := range t.Separation {
			if other < t.ID && !slices.Contains(partners[other], t.ID) {
				partners[other] = append(partners[other], t.ID)
			}
		}
	}
	for _, t := range e.Sys.Tasks {
		for _, other := range partners[t.ID] {
			e.begin(GroupSeparation, t.Name+"+"+e.Sys.TaskByID(other).Name)
			for p, v1 := range e.alloc[t.ID] {
				if v2, ok := e.alloc[other][p]; ok {
					e.req(ir.NotE(ir.And(v1, v2)))
				}
			}
		}
	}
	// Priority tie variables: eq. (9) p^j_i + p^i_j = 1 realized by a
	// single Boolean per unordered pair; eq. (10) fixes all non-ties at
	// compile time inside prioCmp.
	for i, ti := range e.Sys.Tasks {
		for _, tj := range e.Sys.Tasks[i+1:] {
			if ti.Deadline == tj.Deadline {
				a, b := ti.ID, tj.ID
				if a > b {
					a, b = b, a
				}
				e.tie[[2]int{a, b}] = e.F.Bool(fmt.Sprintf("p[%d>%d]", a, b))
			}
		}
	}
	// Memory capacities: Σ_{i placed on p} mem_i ≤ cap_p, realized with
	// conditional constant contributions (the memory-consumption
	// restrictions of the [5] case study).
	for _, ecu := range e.Sys.ECUs {
		if ecu.MemCapacity <= 0 {
			continue
		}
		e.begin(GroupMemory, fmt.Sprintf("ecu%d", ecu.ID))
		var terms []ir.IntExpr
		for _, t := range e.Sys.Tasks {
			if t.MemSize <= 0 {
				continue
			}
			av, ok := e.alloc[t.ID][ecu.ID]
			if !ok {
				continue
			}
			if t.MemSize > ecu.MemCapacity {
				// Can never fit: forbid the placement outright.
				e.req(ir.NotE(av))
				continue
			}
			mv := e.F.Int(fmt.Sprintf("mem[%s,%d]", t.Name, ecu.ID), 0, t.MemSize)
			e.req(ir.Imply(av, ir.Eq(mv, ir.Const(t.MemSize))))
			e.req(ir.Imply(ir.NotE(av), ir.Eq(mv, ir.Const(0))))
			terms = append(terms, mv)
		}
		if len(terms) > 0 {
			e.req(ir.Le(ir.Sum(terms...), ir.Const(ecu.MemCapacity)))
		}
	}

	// The paper's eq. (9) guarantees only antisymmetry; with three or more
	// equal deadlines a cyclic "priority order" would satisfy it but is not
	// realizable by any schedule, so transitivity is enforced explicitly
	// on equal-deadline triples.
	e.begin(GroupPriority, "order")
	// Deadline groups are visited in ascending order so the same spec
	// always yields the same clause sequence and, on a sequential solver,
	// the same search.
	byDeadline := map[int64][]int{}
	var deadlines []int64
	for _, t := range e.Sys.Tasks {
		if _, ok := byDeadline[t.Deadline]; !ok {
			deadlines = append(deadlines, t.Deadline)
		}
		byDeadline[t.Deadline] = append(byDeadline[t.Deadline], t.ID)
	}
	slices.Sort(deadlines)
	for _, d := range deadlines {
		group := byDeadline[d]
		if len(group) < 3 {
			continue
		}
		for _, a := range group {
			for _, b := range group {
				for _, c := range group {
					if a == b || b == c || a == c {
						continue
					}
					e.req(ir.Imply(
						ir.And(e.higherPrio(a, b), e.higherPrio(b, c)),
						e.higherPrio(a, c)))
				}
			}
		}
	}
	return nil
}

// encodeTaskTiming builds eq. (5)–(13): WCET selection, response times,
// preemption counts with the ceiling bounds, and deadline checks.
func (e *Encoding) encodeTaskTiming() error {
	// First pass: the wcet_i variables of eq. (5), needed by every pair's
	// eq. (7) product. These are definitional — wcet_i merely mirrors the
	// chosen ECU's WCET constant — so they stay outside any group: a
	// relaxed deadline family must not free another task's wcet.
	e.ungrouped()
	e.wcetVars = map[int]*ir.IntVar{}
	for _, ti := range e.Sys.Tasks {
		var lo, hi int64
		first := true
		for p := range e.alloc[ti.ID] {
			c := ti.WCET[p]
			if first {
				lo, hi = c, c
				first = false
			} else {
				if c < lo {
					lo = c
				}
				if c > hi {
					hi = c
				}
			}
		}
		wcet := e.F.Int(fmt.Sprintf("wcet[%s]", ti.Name), lo, hi)
		e.wcetVars[ti.ID] = wcet
		for _, p := range sortedKeysB(e.alloc[ti.ID]) {
			e.req(ir.Imply(e.alloc[ti.ID][p], ir.Eq(wcet, ir.Const(ti.WCET[p]))))
		}
	}
	for _, ti := range e.Sys.Tasks {
		e.begin(GroupDeadline, ti.Name)
		wcet := e.wcetVars[ti.ID]
		// Preemption-cost and preemption-count variables per potential
		// interferer: eq. (6)–(8), (11)–(12).
		var pcs []ir.IntExpr
		for _, tj := range e.Sys.Tasks {
			if tj.ID == ti.ID {
				continue
			}
			if e.prioCmp(tj.ID, ti.ID) == -1 {
				continue // τ_j surely lower priority: pc = 0, I = 0
			}
			// Shared candidate ECUs; without overlap no interference.
			shared := false
			for p := range e.alloc[ti.ID] {
				if _, ok := e.alloc[tj.ID][p]; ok {
					shared = true
					break
				}
			}
			if !shared {
				continue
			}
			maxI := ceilDiv(ti.Deadline+tj.Jitter, tj.Period)
			iv := e.F.Int(fmt.Sprintf("I[%s<-%s]", ti.Name, tj.Name), 0, maxI)
			var maxPC int64
			for p := range e.alloc[tj.ID] {
				if pc := maxI * tj.WCET[p]; pc > maxPC {
					maxPC = pc
				}
			}
			pc := e.F.Int(fmt.Sprintf("pc[%s<-%s]", ti.Name, tj.Name), 0, maxPC)
			pcs = append(pcs, pc)

			interferes := ir.And(e.higherPrio(tj.ID, ti.ID), e.sameECULit(ti.ID, tj.ID))
			// eq. (8)/(12): no interference → pc = 0, I = 0.
			e.req(ir.Imply(ir.NotE(interferes), ir.And(
				ir.Eq(pc, ir.Const(0)), ir.Eq(iv, ir.Const(0)))))
			// eq. (7): pc = I^j_i · wcet_j — the paper's non-linear product
			// of two decision variables (wcet_j is fixed by τ_j's
			// allocation through eq. (5)).
			e.req(ir.Imply(interferes,
				ir.Eq(pc, ir.Mul(iv, e.wcetVars[tj.ID]))))
			// eq. (11) needs r_i, which is declared after this loop; defer.
			e.deferCeil(ti.ID, tj.ID, iv, interferes)
		}

		// r_i: eq. (6) with the blocking factor B_i, and the deadline
		// check eq. (13) — with release jitter it reads r_i + J_i ≤ d_i,
		// folded into the variable's range.
		hiR := ti.Deadline - ti.Jitter
		if hiR < wcet.Lo {
			// Trivially infeasible (see encodeAllocation); keep the range
			// non-empty so bit-blasting stays well-formed.
			e.req(ir.False())
			hiR = wcet.Lo
		}
		r := e.F.Int(fmt.Sprintf("r[%s]", ti.Name), wcet.Lo, hiR)
		sum := ir.Add(wcet, ir.Sum(pcs...))
		if ti.Blocking > 0 {
			sum = ir.Add(sum, ir.Const(ti.Blocking))
		}
		e.req(ir.Eq(r, sum))
		e.taskResponse(ti.ID, r)
	}
	// Flush the deferred ceiling constraints now that all r_i exist.
	e.flushCeils()
	return nil
}

// utilScale is the fixed-point scale S of the utilization rows: a task's
// weight on an ECU is ⌊S·c/t⌋ and the row's bound is S.
const utilScale = 1 << 20

// encodeUtilization adds, for every ECU p, the row
//
//	Σ_t ⌊S·c_t(p)/t_t⌋ · a_{t,p} ≤ S
//
// over the placement one-hots: the tasks placed on p use at most all of
// it. The row is implied by eq. (5)–(13) because every deadline is at most
// its period. For the lowest-priority task i on p, r_i ≥ c_i + Σ_{j≠i}
// ⌈r_i/t_j⌉·c_j ≥ r_i·Σ_{j≠i} c_j/t_j + c_i, and r_i ≤ d_i ≤ t_i gives
// c_i ≥ r_i·c_i/t_i, so U(p) ≤ 1; jitter and blocking only raise r_i, and
// flooring the weights keeps the row implied. Stating it natively lets the
// solver refute an overloaded placement in one PB propagation instead of
// one conflict at a time through the adder and multiplier chains. Rows
// that no placement can violate are not emitted.
func (e *Encoding) encodeUtilization() {
	for _, ecu := range e.Sys.ECUs {
		var terms []ir.Term
		var sum int64
		for _, t := range e.Sys.Tasks {
			if av, ok := e.alloc[t.ID][ecu.ID]; ok {
				w := utilScale * t.WCET[ecu.ID] / t.Period
				terms = append(terms, ir.Term{Coef: w, Var: av})
				sum += w
			}
		}
		if sum <= utilScale {
			continue // no placement can violate it
		}
		e.begin(GroupUtilization, fmt.Sprintf("ecu%d", ecu.ID))
		e.reqLinear(terms, utilScale)
	}
}

// --- deferred ceiling bookkeeping -----------------------------------------

type ceilEntry struct {
	taskI, taskJ int
	iv           *ir.IntVar
	cond         ir.BoolExpr
}

func (e *Encoding) deferCeil(i, j int, iv *ir.IntVar, cond ir.BoolExpr) {
	e.ceils = append(e.ceils, ceilEntry{taskI: i, taskJ: j, iv: iv, cond: cond})
}

func (e *Encoding) taskResponse(id int, r *ir.IntVar) {
	if e.respByTask == nil {
		e.respByTask = map[int]*ir.IntVar{}
	}
	e.respByTask[id] = r
}

// flushCeils adds eq. (11) for every interferer pair, with the busy
// window extended by the interferer's release jitter (§2's "release
// jitter … is done in our actual model"):
//
//	cond → ( I·t_j ≥ r_i + J_j  ∧  (I−1)·t_j < r_i + J_j )
func (e *Encoding) flushCeils() {
	for _, c := range e.ceils {
		e.begin(GroupDeadline, e.Sys.TaskByID(c.taskI).Name)
		r := e.respByTask[c.taskI]
		tj := e.Sys.TaskByID(c.taskJ)
		busy := ir.Add(r, ir.Const(tj.Jitter))
		e.req(ir.Imply(c.cond, ir.And(
			ir.Ge(ir.Mul(c.iv, ir.Const(tj.Period)), busy),
			ir.Lt(ir.Mul(ir.Sub(c.iv, ir.Const(1)), ir.Const(tj.Period)), busy),
		)))
	}
	e.ceils = nil
}

func ceilDiv(a, b int64) int64 {
	if a <= 0 {
		return 0
	}
	return (a + b - 1) / b
}
