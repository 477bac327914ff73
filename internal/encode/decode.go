package encode

import (
	"fmt"
	"slices"
	"sort"

	"satalloc/internal/ir"
	"satalloc/internal/model"
)

// Decode projects a satisfying assignment of the encoded formula back onto
// the original decision space — the paper's "extracting the placement and
// scheduling information from the satisfying assignment" (§5.2).
func (e *Encoding) Decode(m *ir.Assignment) (*model.Allocation, error) {
	a := model.NewAllocation()

	// Π: the one-hot allocation variables.
	for _, t := range e.Sys.Tasks {
		placed := -1
		for _, p := range sortedKeysB(e.alloc[t.ID]) {
			if m.Bools[e.alloc[t.ID][p]] {
				if placed >= 0 {
					return nil, fmt.Errorf("decode: task %q placed on two ECUs", t.Name)
				}
				placed = p
			}
		}
		if placed < 0 {
			return nil, fmt.Errorf("decode: task %q unplaced in model", t.Name)
		}
		a.TaskECU[t.ID] = placed
	}

	// Φ: deadline-monotonic order with model-chosen tie resolution.
	ids := make([]int, len(e.Sys.Tasks))
	for i, t := range e.Sys.Tasks {
		ids[i] = t.ID
	}
	sort.Slice(ids, func(x, y int) bool {
		i, j := ids[x], ids[y]
		switch e.prioCmp(i, j) {
		case 1:
			return true
		case -1:
			return false
		}
		lo, hi := i, j
		flip := false
		if lo > hi {
			lo, hi = hi, lo
			flip = true
		}
		v := m.Bools[e.tie[[2]int{lo, hi}]]
		if flip {
			return !v
		}
		return v
	})
	for rank, id := range ids {
		a.TaskPrio[id] = rank
	}

	// Message priorities: the fixed deadline-monotonic order.
	msgs := append([]*model.Message{}, e.Sys.Messages...)
	sort.Slice(msgs, func(i, j int) bool { return e.msgPrioLess(msgs[i], msgs[j]) })
	for rank, msg := range msgs {
		a.MsgPrio[msg.ID] = rank
	}

	// Γ: the selected path per message, plus local deadlines.
	for _, msg := range e.Sys.Messages {
		chosen := -1
		for idx := range e.paths[msg.ID] {
			if m.Bools[e.route[msg.ID][idx]] {
				if chosen >= 0 {
					return nil, fmt.Errorf("decode: message %q has two routes", msg.Name)
				}
				chosen = idx
			}
		}
		if chosen < 0 {
			return nil, fmt.Errorf("decode: message %q unrouted in model", msg.Name)
		}
		a.Route[msg.ID] = append(model.Path{}, e.paths[msg.ID][chosen]...)
		for _, k := range e.paths[msg.ID][chosen] {
			a.MsgLocalDeadline[[2]int{msg.ID, k}] = m.Ints[e.localDL[msg.ID][k]]
		}
	}

	// TDMA slot table.
	for _, med := range e.Sys.Media {
		if med.Kind != model.TokenRing {
			continue
		}
		for p, v := range e.slot[med.ID] {
			a.SlotLen[[2]int{med.ID, p}] = m.Ints[v] * med.SlotQuantum
		}
	}
	return a, nil
}

// DecisionAssignment maps an allocation onto the encoding's decision
// variables — the reverse of Decode on them: the placement one-hots, the
// deadline-tie priorities, the route selectors, the used-medium flags, the
// local message deadlines and the slot lengths (in quanta). Variables the
// allocation says nothing about stay unassigned, and a route that matches
// no candidate path leaves every selector of its message false. The
// optimizer hints these values to the solver to warm-start the search
// from a heuristic incumbent; they carry no logical weight there, so an
// allocation the encoding cannot represent costs search time, never
// soundness.
func (e *Encoding) DecisionAssignment(a *model.Allocation) *ir.Assignment {
	m := ir.NewAssignment()
	for _, t := range e.Sys.Tasks {
		placed, ok := a.TaskECU[t.ID]
		if !ok {
			continue
		}
		for p, v := range e.alloc[t.ID] {
			m.Bools[v] = p == placed
		}
	}
	for pair, v := range e.tie {
		hi, okHi := a.TaskPrio[pair[0]]
		lo, okLo := a.TaskPrio[pair[1]]
		if okHi && okLo {
			m.Bools[v] = hi < lo // a smaller rank is a higher priority
		}
	}
	for _, msg := range e.Sys.Messages {
		route, ok := a.Route[msg.ID]
		if !ok {
			continue
		}
		for idx, h := range e.paths[msg.ID] {
			m.Bools[e.route[msg.ID][idx]] = slices.Equal(h, route)
		}
		for k, v := range e.used[msg.ID] {
			m.Bools[v] = slices.Contains(route, k)
		}
		for k, v := range e.localDL[msg.ID] {
			m.Ints[v] = a.MsgLocalDeadline[[2]int{msg.ID, k}] // 0 off the route
		}
	}
	for _, med := range e.Sys.Media {
		for p, v := range e.slot[med.ID] {
			if l, ok := a.SlotLen[[2]int{med.ID, p}]; ok {
				m.Ints[v] = l / med.SlotQuantum
			}
		}
	}
	return m
}

// CostOf reads the cost variable from an assignment.
func (e *Encoding) CostOf(m *ir.Assignment) int64 { return m.Ints[e.Cost] }

// TaskResponse reads the encoded response-time variable r_i of a task from
// an assignment. The encoding admits any fixed point of the recurrence, so
// this value is ≥ the least fixed point the analyzer computes — and still
// ≤ the deadline, which is what schedulability needs.
func (e *Encoding) TaskResponse(m *ir.Assignment, taskID int) int64 {
	return m.Ints[e.respByTask[taskID]]
}

// PlacementVars returns the one-hot allocation variables (a_i = p) in a
// deterministic order — the projection used when enumerating optimal
// placements.
func (e *Encoding) PlacementVars() []*ir.BoolVar {
	var out []*ir.BoolVar
	for _, t := range e.Sys.Tasks {
		for _, p := range sortedKeysB(e.alloc[t.ID]) {
			out = append(out, e.alloc[t.ID][p])
		}
	}
	return out
}
