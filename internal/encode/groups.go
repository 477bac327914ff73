package encode

import (
	"fmt"

	"satalloc/internal/ir"
)

// GroupKind names a model-level constraint family. Kinds deliberately
// match the vocabulary of the spec (tasks, ECUs, messages) rather than
// the encoding's internals, because unsat cores are reported in these
// terms to users who never see the formula.
type GroupKind string

// The constraint families a core can name.
const (
	// GroupPlacement is a task's one-hot allocation (eq. 4 first
	// conjunct): it must run on exactly one candidate ECU.
	GroupPlacement GroupKind = "placement"
	// GroupSeparation is a redundancy pair (eq. 4 second conjunct): two
	// replicas must not share an ECU.
	GroupSeparation GroupKind = "separation"
	// GroupMemory is one ECU's memory-capacity circuit.
	GroupMemory GroupKind = "memory"
	// GroupPriority is the global priority-order consistency circuit
	// (eq. 9/10 tie transitivity).
	GroupPriority GroupKind = "priority"
	// GroupDeadline is a task's response-time analysis and deadline check
	// (eq. 5–13), or — for a message entity — its local-deadline budget
	// and per-medium response-time checks.
	GroupDeadline GroupKind = "deadline"
	// GroupRouting is a message's path selection: one-hot path choice,
	// endpoint conditions, media-usage bits, and entry stations (§4).
	GroupRouting GroupKind = "routing"
	// GroupUtilization is one ECU's implied utilization row (see
	// encodeUtilization). The deadline and priority families entail it,
	// so it only ever speeds refutation up.
	GroupUtilization GroupKind = "utilization"
)

// ConstraintGroup is a named, selectable family of asserts. Sel is set
// only when the encoding was built with Options.Groups: asserting Sel
// enables the family, leaving it free relaxes the family to vacuous.
type ConstraintGroup struct {
	Kind   GroupKind
	Entity string // task, message, ECU, or pair name from the spec
	Sel    *ir.BoolVar
}

// Name renders the group the way reports print it: kind(entity).
func (g ConstraintGroup) Name() string {
	return fmt.Sprintf("%s(%s)", g.Kind, g.Entity)
}

// Groups returns the constraint groups of the encoding, in declaration
// order. Selector variables are non-nil only under Options.Groups.
func (e *Encoding) Groups() []ConstraintGroup { return e.groups }

// begin directs subsequent req calls into the named group, creating it on
// first use. Families interleave during encoding (flushCeils re-visits
// tasks), so begin keys groups by kind+entity rather than assuming each is
// opened once.
func (e *Encoding) begin(kind GroupKind, entity string) {
	key := string(kind) + "\x00" + entity
	idx, ok := e.groupIdx[key]
	if !ok {
		idx = len(e.groups)
		e.groups = append(e.groups, ConstraintGroup{Kind: kind, Entity: entity})
		e.groupIdx[key] = idx
	}
	e.cur = idx
}

// ungrouped directs subsequent req calls outside any group: definitional
// constraints (variable tie-downs, objective circuits) that must stay
// active even when every group is relaxed, so that a relaxed formula
// remains a sound over-approximation rather than garbage.
func (e *Encoding) ungrouped() { e.cur = -1 }

// req is the group-aware Formula.Require: it records which group (if any)
// owns each assert the formula actually keeps. All encoding passes must
// add asserts through req — groupOf runs index-parallel to F.Asserts.
func (e *Encoding) req(x ir.BoolExpr) {
	before := len(e.F.Asserts)
	e.F.Require(x)
	if len(e.F.Asserts) > before {
		e.groupOf = append(e.groupOf, e.cur)
	}
}

// reqLinear is req for a linear row Σ terms ≤ bound: it records the
// row's owning group, index-parallel to F.Linear.
func (e *Encoding) reqLinear(terms []ir.Term, bound int64) {
	e.F.RequireLinear(terms, bound)
	e.linGroupOf = append(e.linGroupOf, e.cur)
}

// applySelectors rewrites every grouped assert A into sel_g → A, guards
// every grouped linear row by sel_g, and declares the selector variables.
// Called at the end of Encode under Options.Groups; with every selector
// asserted true the formula is equisatisfiable with the unguarded
// encoding, and leaving a selector free relaxes exactly its family. Note
// that integer-variable ranges are not guarded — a relaxed deadline group
// still leaves the response-time variable inside its declared range,
// which is what keeps bit-blasting well-formed — so relaxation means "the
// family's equations are waived", not "the variables disappear".
func (e *Encoding) applySelectors() {
	for gi := range e.groups {
		g := &e.groups[gi]
		g.Sel = e.F.Bool(fmt.Sprintf("sel[%s]", g.Name()))
	}
	for i, a := range e.F.Asserts {
		if gi := e.groupOf[i]; gi >= 0 {
			e.F.Asserts[i] = ir.Imply(e.groups[gi].Sel, a)
		}
	}
	for i, row := range e.F.Linear {
		if gi := e.linGroupOf[i]; gi >= 0 {
			row.Guard = e.groups[gi].Sel
		}
	}
}
