package baseline

import (
	"math/rand"
	"testing"

	"satalloc/internal/encode"
	"satalloc/internal/model"
	"satalloc/internal/opt"
	"satalloc/internal/rta"
	"satalloc/internal/workload"
)

func tinySystem(seed int64) *model.System {
	rng := rand.New(rand.NewSource(seed))
	s := &model.System{Name: "tiny"}
	s.ECUs = []*model.ECU{{ID: 0, Name: "p0"}, {ID: 1, Name: "p1"}}
	s.Media = []*model.Medium{{
		ID: 0, Name: "ring", Kind: model.TokenRing, ECUs: []int{0, 1},
		TimePerUnit: 1, SlotQuantum: 2, MaxSlots: 4,
	}}
	nt := 2 + rng.Intn(2)
	for i := 0; i < nt; i++ {
		period := int64(30 + rng.Intn(3)*10)
		c := int64(4 + rng.Intn(6))
		s.Tasks = append(s.Tasks, &model.Task{
			ID: i, Name: "t", Period: period, Deadline: period - int64(rng.Intn(5)),
			WCET: map[int]int64{0: c, 1: c + int64(rng.Intn(3))},
		})
	}
	// One message between two random distinct tasks.
	if nt >= 2 {
		from := rng.Intn(nt)
		to := (from + 1 + rng.Intn(nt-1)) % nt
		s.Messages = append(s.Messages, &model.Message{
			ID: 0, Name: "m0", From: from, To: to,
			Size: int64(1 + rng.Intn(3)), Deadline: 20 + int64(rng.Intn(10)),
		})
		s.Tasks[from].Messages = []int{0}
	}
	return s
}

func TestCompleteDerivesLocalDeadlines(t *testing.T) {
	s := tinySystem(1)
	cand := InitialCandidate(s, rand.New(rand.NewSource(2)))
	a := cand.Complete(s)
	for _, msg := range s.Messages {
		route := a.Route[msg.ID]
		if len(route) == 0 {
			continue
		}
		var sum int64
		for _, k := range route {
			d := a.MsgLocalDeadline[[2]int{msg.ID, k}]
			if d < s.MediumByID(k).Rho(msg.Size) {
				t.Fatalf("local deadline %d below transmission time", d)
			}
			sum += d
		}
		if sum+s.PathServiceCost(route) > msg.Deadline {
			t.Fatalf("local deadlines exceed Δ: %d > %d", sum, msg.Deadline)
		}
	}
}

func TestGreedyProducesStructurallyValidAllocation(t *testing.T) {
	s := tinySystem(3)
	res := GreedyFirstFit(s, encode.Options{Objective: encode.MinimizeTRT, ObjectiveMedium: -1})
	if res.Feasible {
		if err := res.Allocation.CheckStructure(s); err != nil {
			t.Fatal(err)
		}
	}
}

// TestExhaustiveMatchesSATOptimum is the optimality cross-check: on tiny
// random instances, the brute-force oracle and the SAT binary search must
// agree on feasibility and on the optimal cost.
func TestExhaustiveMatchesSATOptimum(t *testing.T) {
	opts := encode.Options{Objective: encode.MinimizeTRT, ObjectiveMedium: -1}
	agree := 0
	for seed := int64(0); seed < 12; seed++ {
		s := tinySystem(seed)
		ex := Exhaustive(s, opts, 0)

		enc, err := encode.Encode(s, opts)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		sr, err := opt.Minimize(enc, opt.Options{Incremental: true})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		satFeasible := sr.Status == opt.Optimal
		if satFeasible != ex.Feasible {
			t.Fatalf("seed %d: SAT feasible=%v, exhaustive feasible=%v", seed, satFeasible, ex.Feasible)
		}
		if satFeasible {
			if sr.Cost != ex.Cost {
				t.Fatalf("seed %d: SAT optimum %d != exhaustive optimum %d", seed, sr.Cost, ex.Cost)
			}
			agree++
		}
	}
	if agree == 0 {
		t.Fatal("no feasible instances generated; test is vacuous")
	}
	t.Logf("%d feasible instances agreed on the optimum", agree)
}

// TestSANeverBeatsSAT: simulated annealing may be suboptimal but can never
// return a feasible cost below the SAT optimum (which would disprove
// optimality).
func TestSANeverBeatsSAT(t *testing.T) {
	opts := encode.Options{Objective: encode.MinimizeTRT, ObjectiveMedium: -1}
	checked := 0
	for seed := int64(0); seed < 8; seed++ {
		s := tinySystem(seed)
		enc, err := encode.Encode(s, opts)
		if err != nil {
			t.Fatal(err)
		}
		sr, err := opt.Minimize(enc, opt.Options{Incremental: true})
		if err != nil {
			t.Fatal(err)
		}
		if sr.Status != opt.Optimal {
			continue
		}
		saOpts := DefaultSAOptions()
		saOpts.Steps = 2000
		saOpts.Restarts = 1
		saOpts.Seed = seed
		saOpts.Encode = opts
		sa := SimulatedAnnealing(s, saOpts)
		if sa.Feasible {
			if sa.Cost < sr.Cost {
				t.Fatalf("seed %d: SA cost %d beats proven optimum %d", seed, sa.Cost, sr.Cost)
			}
			// SA results must also pass the analyzer.
			if !rta.Analyze(s, sa.Allocation).Schedulable {
				t.Fatalf("seed %d: SA allocation not schedulable", seed)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Skip("SA found no feasible allocation on these seeds")
	}
}

func TestExhaustiveBudget(t *testing.T) {
	s := tinySystem(1)
	res := Exhaustive(s, encode.Options{Objective: encode.MinimizeTRT, ObjectiveMedium: -1}, 5)
	if res.Explored > 5 {
		t.Fatalf("budget ignored: explored %d", res.Explored)
	}
}

func TestMinSlotQuanta(t *testing.T) {
	s := tinySystem(1)
	cand := InitialCandidate(s, rand.New(rand.NewSource(1)))
	med := s.Media[0]
	for _, p := range med.ECUs {
		q := minSlotQuanta(s, cand, med, p)
		if q < 1 {
			t.Fatalf("slot below one quantum")
		}
		// The slot must fit every frame sent from p.
		for _, msg := range s.Messages {
			route := cand.Route[msg.ID]
			if len(route) == 1 && route[0] == med.ID && cand.TaskECU[msg.From] == p {
				if q*med.SlotQuantum < med.Rho(msg.Size) {
					t.Fatalf("slot %d cannot fit frame %d", q*med.SlotQuantum, med.Rho(msg.Size))
				}
			}
		}
	}
}

func TestObjectiveMaxECUUtil(t *testing.T) {
	s := tinySystem(2)
	cand := InitialCandidate(s, rand.New(rand.NewSource(1)))
	a := cand.Complete(s)
	got := Objective(s, a, encode.Options{Objective: encode.MinimizeMaxECUUtilization, ObjectiveMedium: -1})
	var want int64
	for _, e := range s.ECUs {
		u := rta.ECUUtilizationMilli(s, a, e.ID)
		if u > want {
			want = u
		}
	}
	// Objective rounds zero contributions up to 1‰; allow small slack.
	if got < want || got > want+int64(len(s.Tasks)) {
		t.Fatalf("max util objective %d, analyzer says %d", got, want)
	}
}

// TestHierarchicalSATWithinOracle: on two-bus instances the exhaustive
// oracle (which fixes the per-hop deadline split heuristically) gives an
// upper bound on the true optimum; the SAT search, which optimizes the
// split too, must be at most that — and every oracle-feasible instance
// must be SAT-feasible.
func TestHierarchicalSATWithinOracle(t *testing.T) {
	opts := encode.Options{Objective: encode.MinimizeSumTRT, ObjectiveMedium: -1}
	checked := 0
	for seed := int64(0); seed < 8; seed++ {
		s := workload.TinyTwoBus(seed)
		ex := Exhaustive(s, opts, 0)
		enc, err := encode.Encode(s, opts)
		if err != nil {
			t.Fatal(err)
		}
		sr, err := opt.Minimize(enc, opt.Options{Incremental: true})
		if err != nil {
			t.Fatal(err)
		}
		if ex.Feasible {
			if sr.Status != opt.Optimal {
				t.Fatalf("seed %d: oracle feasible (cost %d) but SAT says %v", seed, ex.Cost, sr.Status)
			}
			if sr.Cost > ex.Cost {
				t.Fatalf("seed %d: SAT 'optimum' %d above oracle's achievable %d", seed, sr.Cost, ex.Cost)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Skip("no feasible instances generated")
	}
	t.Logf("%d hierarchical instances cross-checked", checked)
}
