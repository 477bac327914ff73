package sat

// The determinism corpus pins the solver's exact search trajectory: every
// scenario below runs a fixed seeded instance mix and fingerprints the
// verdict sequence, the cumulative search counters, and the final model
// bits. The golden file was generated with the pre-arena pointer-based
// clause store; the arena-backed store must reproduce it bit for bit —
// same decisions, same propagations, same conflicts, same models — which
// is the refactor's soundness-and-determinism gate (layout changes must
// not alter the search).
//
// Regenerate (only for intentional search-behavior changes) with:
//
//	SATALLOC_UPDATE_GOLDEN=1 go test -run TestDeterminismGolden ./internal/sat

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// detFingerprint is the recorded trajectory of one corpus scenario.
type detFingerprint struct {
	Name         string   `json:"name"`
	Statuses     []string `json:"statuses"`
	Conflicts    int64    `json:"conflicts"`
	Decisions    int64    `json:"decisions"`
	Propagations int64    `json:"propagations"`
	Restarts     int64    `json:"restarts"`
	LearntAdded  int64    `json:"learnt_added"`
	LearntPruned int64    `json:"learnt_pruned"`
	// ModelHash is an FNV-1a hash over the model bits of every Sat call,
	// in call order (0 when no call returned Sat).
	ModelHash uint64 `json:"model_hash"`
}

// detScenario drives one solver through a deterministic script and
// fingerprints the run. build loads the formula the script starts from
// into a fresh solver; the script itself may grow it further.
type detScenario struct {
	name  string
	build func(t *testing.T, s *Solver)
	run   func(t *testing.T) detFingerprint
}

// hashModel folds the full model into h.
func hashModel(h *uint64, s *Solver) {
	hh := fnv.New64a()
	var b [8]byte
	b[0] = byte(*h)
	b[1] = byte(*h >> 8)
	b[2] = byte(*h >> 16)
	b[3] = byte(*h >> 24)
	b[4] = byte(*h >> 32)
	b[5] = byte(*h >> 40)
	b[6] = byte(*h >> 48)
	b[7] = byte(*h >> 56)
	hh.Write(b[:])
	for v := Var(1); int(v) <= s.NumVariables(); v++ {
		if s.Model(v) {
			hh.Write([]byte{1})
		} else {
			hh.Write([]byte{0})
		}
	}
	*h = hh.Sum64()
}

func fingerprint(name string, s *Solver, statuses []Status, modelHash uint64) detFingerprint {
	fp := detFingerprint{
		Name:         name,
		Conflicts:    s.Stats.Conflicts,
		Decisions:    s.Stats.Decisions,
		Propagations: s.Stats.Propagations,
		Restarts:     s.Stats.Restarts,
		LearntAdded:  s.Stats.LearntAdded,
		LearntPruned: s.Stats.LearntPruned,
		ModelHash:    modelHash,
	}
	for _, st := range statuses {
		fp.Statuses = append(fp.Statuses, st.String())
	}
	return fp
}

// buildRandom3SAT fills s with a seeded random 3-SAT instance.
func buildRandom3SAT(t *testing.T, s *Solver, seed int64, nvars, nclauses int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	vars := make([]Var, nvars)
	for i := range vars {
		vars[i] = s.NewVar()
	}
	for i := 0; i < nclauses; i++ {
		a := rng.Intn(nvars)
		b := rng.Intn(nvars)
		c := rng.Intn(nvars)
		cl := []Lit{
			MkLit(vars[a], rng.Intn(2) == 0),
			MkLit(vars[b], rng.Intn(2) == 0),
			MkLit(vars[c], rng.Intn(2) == 0),
		}
		if err := s.AddClause(cl...); err != nil {
			t.Fatal(err)
		}
	}
}

// buildRandomPB adds seeded random PB constraints over existing variables.
func buildRandomPB(t *testing.T, s *Solver, seed int64, npb, width int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	n := s.NumVariables()
	for i := 0; i < npb; i++ {
		terms := make([]PBTerm, 0, width)
		var sum int64
		for j := 0; j < width; j++ {
			coef := int64(1 + rng.Intn(5))
			sum += coef
			terms = append(terms, PBTerm{
				Coef: coef,
				Lit:  MkLit(Var(1+rng.Intn(n)), rng.Intn(2) == 0),
			})
		}
		bound := 1 + rng.Int63n(sum/2+1)
		if err := s.AddPB(terms, bound); err != nil {
			t.Fatal(err)
		}
	}
}

func determinismScenarios() []detScenario {
	var scs []detScenario
	// Plain 3-SAT near the phase transition: a mix of SAT and UNSAT runs
	// exercising restarts and conflict analysis.
	for seed := int64(1); seed <= 8; seed++ {
		seed := seed
		build := func(t *testing.T, s *Solver) { buildRandom3SAT(t, s, seed, 50, 212) }
		scs = append(scs, detScenario{
			name:  fmt.Sprintf("3sat/seed=%d", seed),
			build: build,
			run: func(t *testing.T) detFingerprint {
				s := New()
				build(t, s)
				st := s.Solve()
				var h uint64
				if st == Sat {
					hashModel(&h, s)
				}
				return fingerprint("", s, []Status{st}, h)
			},
		})
	}
	// Mixed clause + PB instances: counter-based PB propagation on the
	// same trail as clause propagation.
	for seed := int64(20); seed <= 23; seed++ {
		seed := seed
		build := func(t *testing.T, s *Solver) {
			buildRandom3SAT(t, s, seed, 40, 140)
			buildRandomPB(t, s, seed+100, 25, 6)
		}
		scs = append(scs, detScenario{
			name:  fmt.Sprintf("mixed-pb/seed=%d", seed),
			build: build,
			run: func(t *testing.T) detFingerprint {
				s := New()
				build(t, s)
				st := s.Solve()
				var h uint64
				if st == Sat {
					hashModel(&h, s)
				}
				return fingerprint("", s, []Status{st}, h)
			},
		})
	}
	// Incremental script with a tiny learnt-DB ceiling: forces repeated
	// reduceDB passes (and, post-refactor, arena compactions) while
	// clauses are serving as reasons, then keeps solving under
	// assumptions so relocated clauses must still explain propagations.
	for seed := int64(40); seed <= 42; seed++ {
		seed := seed
		build := func(t *testing.T, s *Solver) { buildRandom3SAT(t, s, seed, 60, 240) }
		scs = append(scs, detScenario{
			name:  fmt.Sprintf("incremental-reduce/seed=%d", seed),
			build: build,
			run: func(t *testing.T) detFingerprint {
				s := New()
				s.maxLearnt = 20
				build(t, s)
				var statuses []Status
				var h uint64
				st := s.Solve()
				statuses = append(statuses, st)
				if st == Sat {
					hashModel(&h, s)
				}
				// Solve under assumption scripts; the solver keeps its
				// learnt clauses between the calls.
				for i := 0; i < 6; i++ {
					a := MkLit(Var(1+(seed+int64(i)*7)%60), i%2 == 0)
					b := MkLit(Var(1+(seed+int64(i)*13)%60), i%3 == 0)
					st := s.Solve(a, b)
					statuses = append(statuses, st)
					if st == Sat {
						hashModel(&h, s)
					}
				}
				// Grow the formula mid-flight and solve once more.
				buildRandomPB(t, s, seed+200, 10, 5)
				st = s.Solve()
				statuses = append(statuses, st)
				if st == Sat {
					hashModel(&h, s)
				}
				return fingerprint("", s, statuses, h)
			},
		})
	}
	// Cardinality-heavy instance: one-hot rows over a grid plus binary
	// exclusion clauses — the allocation encoding's shape in miniature.
	buildGrid := func(t *testing.T, s *Solver) {
		const rows, cols = 12, 6
		grid := make([][]Lit, rows)
		for r := range grid {
			grid[r] = make([]Lit, cols)
			for c := range grid[r] {
				grid[r][c] = PosLit(s.NewVar())
			}
		}
		rng := rand.New(rand.NewSource(99))
		for r := range grid {
			if err := s.AddClause(grid[r]...); err != nil {
				t.Fatal(err)
			}
			if err := s.AddAtMostOne(grid[r]...); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 40; i++ {
			r1, r2 := rng.Intn(rows), rng.Intn(rows)
			c := rng.Intn(cols)
			if r1 == r2 {
				continue
			}
			if err := s.AddClause(grid[r1][c].Not(), grid[r2][c].Not()); err != nil {
				t.Fatal(err)
			}
		}
	}
	scs = append(scs, detScenario{
		name:  "one-hot-grid",
		build: buildGrid,
		run: func(t *testing.T) detFingerprint {
			s := New()
			buildGrid(t, s)
			st := s.Solve()
			var h uint64
			if st == Sat {
				hashModel(&h, s)
			}
			return fingerprint("", s, []Status{st}, h)
		},
	})
	return scs
}

const goldenPath = "testdata/determinism_golden.json"

// TestDeterminismGolden replays the corpus and compares every fingerprint
// against the committed golden file.
func TestDeterminismGolden(t *testing.T) {
	var got []detFingerprint
	for _, sc := range determinismScenarios() {
		fp := sc.run(t)
		fp.Name = sc.name
		got = append(got, fp)
	}
	if os.Getenv("SATALLOC_UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		data = append(data, '\n')
		if err := os.WriteFile(goldenPath, data, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d scenarios)", goldenPath, len(got))
		return
	}
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("reading golden (regenerate with SATALLOC_UPDATE_GOLDEN=1): %v", err)
	}
	var want []detFingerprint
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("scenario count changed: golden %d, corpus %d (regenerate the golden)", len(want), len(got))
	}
	for i := range got {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("scenario %s diverged from the pre-arena solver:\n  got  %+v\n  want %+v",
				got[i].Name, got[i], want[i])
		}
	}
}
