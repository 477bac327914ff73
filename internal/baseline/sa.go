package baseline

import (
	"context"
	"math"
	"math/rand"

	"satalloc/internal/encode"
	"satalloc/internal/model"
)

// ctxCheckSteps is the annealing-step interval between context polls: the
// anytime guarantee is "returns the best-so-far within this many steps of
// cancellation".
const ctxCheckSteps = 128

// SAOptions tunes the simulated-annealing allocator.
type SAOptions struct {
	Seed     int64
	Initial  float64 // initial temperature
	Cooling  float64 // geometric cooling factor per step
	Steps    int     // total annealing steps
	Restarts int     // independent restarts; the best result wins
	Encode   encode.Options
	// Ctx, when set, makes the annealer cancellable: it is polled every
	// ctxCheckSteps steps and at restart boundaries, and on cancellation
	// the best result found so far is returned (anytime behaviour, like
	// the exact search). Nil means never cancelled.
	Ctx context.Context
}

// DefaultSAOptions mirrors a typical Tindell-style parameterization.
func DefaultSAOptions() SAOptions {
	return SAOptions{
		Seed:     1,
		Initial:  500,
		Cooling:  0.999,
		Steps:    20000,
		Restarts: 3,
		Encode:   encode.Options{Objective: encode.MinimizeTRT, ObjectiveMedium: -1},
	}
}

// SAResult reports the annealer's outcome.
type SAResult struct {
	Feasible   bool
	Cost       int64
	Allocation *model.Allocation
	Evaluated  int // number of candidate evaluations
}

// SimulatedAnnealing searches for a low-cost schedulable allocation in the
// manner of the paper's reference [5]: random moves over task placement,
// message routing and slot sizing, accepted with the Metropolis criterion
// under a geometric cooling schedule. Unlike the SAT approach it carries no
// optimality guarantee — Table 1's point is exactly that it can return a
// suboptimal TRT (8.7 ms where the optimum is 8.55 ms).
func SimulatedAnnealing(sys *model.System, opts SAOptions) *SAResult {
	rng := rand.New(rand.NewSource(opts.Seed))
	paths := sys.EnumeratePaths()
	best := &SAResult{Feasible: false, Cost: math.MaxInt64}
	cancelled := func() bool { return opts.Ctx != nil && opts.Ctx.Err() != nil }

	for restart := 0; restart < opts.Restarts; restart++ {
		if cancelled() {
			return best
		}
		cur := InitialCandidate(sys, rng)
		curE, curOK := Energy(sys, cur, opts.Encode)
		best.Evaluated++
		if curOK && curE < best.Cost {
			best.Feasible = true
			best.Cost = curE
			best.Allocation = cur.Complete(sys)
		}
		temp := opts.Initial
		for step := 0; step < opts.Steps; step++ {
			if step%ctxCheckSteps == 0 && cancelled() {
				return best
			}
			next := mutate(sys, cur, paths, rng)
			nextE, nextOK := Energy(sys, next, opts.Encode)
			best.Evaluated++
			accept := nextE <= curE
			if !accept && temp > 1e-9 {
				accept = rng.Float64() < math.Exp(float64(curE-nextE)/temp)
			}
			if accept {
				cur, curE, curOK = next, nextE, nextOK
			}
			if nextOK && nextE < best.Cost {
				best.Feasible = true
				best.Cost = nextE
				best.Allocation = next.Complete(sys)
			}
			temp *= opts.Cooling
		}
	}
	return best
}

// mutate applies one random move: relocate a task, re-route a message, or
// resize a slot.
func mutate(sys *model.System, cur *Candidate, paths []model.Path, rng *rand.Rand) *Candidate {
	next := cur.Clone()
	switch rng.Intn(4) {
	case 0, 1: // move a task (most common move, as in [5])
		t := sys.Tasks[rng.Intn(len(sys.Tasks))]
		cands := sys.CandidateECUs(t)
		next.TaskECU[t.ID] = cands[rng.Intn(len(cands))]
		// Re-route affected messages onto shortest valid paths.
		for _, msg := range sys.Messages {
			if msg.From != t.ID && msg.To != t.ID {
				continue
			}
			h := shortestValidPath(sys, paths, next.TaskECU[msg.From], next.TaskECU[msg.To])
			if h == nil {
				h = model.Path{}
			}
			next.Route[msg.ID] = h
		}
		resetSlots(sys, next)
	case 2: // re-route a message
		if len(sys.Messages) == 0 {
			return next
		}
		msg := sys.Messages[rng.Intn(len(sys.Messages))]
		src := next.TaskECU[msg.From]
		dst := next.TaskECU[msg.To]
		var valid []model.Path
		for _, h := range paths {
			if sys.ValidEndpoints(h, src, dst) {
				valid = append(valid, h)
			}
		}
		if len(valid) > 0 {
			next.Route[msg.ID] = append(model.Path{}, valid[rng.Intn(len(valid))]...)
			resetSlots(sys, next)
		}
	case 3: // resize a random slot ±1 quantum
		var keys [][2]int
		for _, med := range sys.Media {
			if med.Kind != model.TokenRing {
				continue
			}
			for _, p := range med.ECUs {
				keys = append(keys, [2]int{med.ID, p})
			}
		}
		if len(keys) == 0 {
			return next
		}
		key := keys[rng.Intn(len(keys))]
		med := sys.MediumByID(key[0])
		q := next.SlotQ[key]
		if rng.Intn(2) == 0 && q < med.MaxSlots {
			q++
		} else if q > minSlotQuanta(sys, next, med, key[1]) {
			q--
		}
		next.SlotQ[key] = q
	}
	return next
}
