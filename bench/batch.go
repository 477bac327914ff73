package main

import (
	"context"
	"encoding/json"
	"fmt"
	"time"

	"satalloc/internal/bv"
	"satalloc/internal/cli"
	"satalloc/internal/core"
	"satalloc/internal/encode"
	"satalloc/internal/ir"
	"satalloc/internal/opt"
	"satalloc/internal/rta"
	"satalloc/internal/sat"
)

// warmup names the instance each batch set-up solves once, untimed: a
// fixed, cheap member so set-up time does not depend on the seed.
var warmup = map[string]string{paperTables: "t4-c-can", unsatFrontier: "uf-u73-s5"}

// solveConfig is how cmd/allocate configures a solve: the instance's
// objective and the default portfolio size. OnImprove only timestamps.
func solveConfig(in instance, onImprove func(lower, upper int64)) core.Config {
	return core.Config{Objective: in.obj, Workers: cli.DefaultWorkers(), OnImprove: onImprove}
}

// solveRec is one timed core.SolveContext call.
type solveRec struct {
	inst    int
	latency time.Duration // the call itself
	first   time.Duration // call start → first OnImprove; 0 when none came
	sol     *core.Solution
	err     error
}

func runBatch(cfg config, rec *recorder, rep *report) (*outcome, error) {
	ctx := context.Background()
	var insts []instance
	var expected map[string]verdict
	var setup []float64
	for i := 0; i < cfg.setups; i++ {
		t0 := time.Now()
		insts = batchInstances(cfg.workload)
		if cfg.instances > 0 && cfg.instances < len(insts) {
			insts = insts[:cfg.instances]
		}
		var err error
		if expected, err = loadExpected(); err != nil {
			return nil, err
		}
		warm := insts[0]
		for _, in := range insts {
			if in.name == warmup[cfg.workload] {
				warm = in
			}
		}
		if _, err := core.SolveContext(ctx, warm.sys, solveConfig(warm, nil)); err != nil {
			return nil, fmt.Errorf("warm-up solve: %w", err)
		}
		setup = append(setup, time.Since(t0).Seconds())
	}
	rep.set("setup_s", percentile(setup, 50), len(setup))

	// Closed loop, one caller: whole passes over the instance list in a
	// seed-shuffled order, so every run weighs each instance alike.
	var solves []solveRec
	cpu0, _, err := usage()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	for pass := 0; pass == 0 || time.Since(start) < cfg.window; pass++ {
		for _, k := range shuffled(cfg.seed, pass, len(insts)) {
			r := solveOnce(ctx, insts[k], fmt.Sprintf("p%d-%s", pass, insts[k].name), rec)
			r.inst = k
			solves = append(solves, r)
		}
	}
	window := time.Since(start)
	cpu1, rss, err := usage()
	if err != nil {
		return nil, err
	}

	out := &outcome{attempted: len(solves)}
	var lat, first []float64
	for _, r := range solves {
		if r.err != nil {
			continue
		}
		lat = append(lat, ms(r.latency))
		if r.first > 0 {
			first = append(first, ms(r.first))
		}
	}
	if len(lat) > 0 {
		rep.set("throughput_per_s", float64(len(lat))/window.Seconds(), len(lat))
		rep.set("latency_p50_ms", percentile(lat, 50), len(lat))
		rep.set("latency_p90_ms", percentile(lat, 90), len(lat))
		rep.set("cpu_s_per_verdict", (cpu1-cpu0).Seconds()/float64(len(lat)), len(lat))
	}
	if len(first) > 0 {
		rep.set("first_feasible_p50_ms", percentile(first, 50), len(first))
	}
	rep.set("peak_rss_mb", rss, 0)
	rep.note("%d solves in %d passes over %d instances, window %.1fs", len(solves), len(solves)/len(insts), len(insts), window.Seconds())

	checkBatch(insts, solves, expected, out)
	if rec != nil {
		if err := servicePass(cfg, insts, expected, rec, out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// solveOnce makes one timed core.SolveContext call. A traced call is
// preceded by standalone encode.Encode, ir.ToTriplets and bv.BlastWith
// calls on the same instance and followed by rta.Analyze of the answer,
// each in its own span outside the SolveContext span, which therefore
// stays exactly the end-to-end call; probe spans come from Solution.Iters.
func solveOnce(ctx context.Context, in instance, req string, rec *recorder) solveRec {
	type call struct {
		name       string
		start, end time.Time
		attrs      map[string]any
	}
	var calls []call
	begin := time.Now()
	if rec != nil {
		t0 := time.Now()
		enc, err := encode.Encode(in.sys, encode.Options{Objective: in.obj, ObjectiveMedium: -1})
		if err != nil {
			return solveRec{err: err}
		}
		t1 := time.Now()
		tr := ir.ToTriplets(enc.F)
		t2 := time.Now()
		s := sat.New()
		b, err := bv.BlastWith(s, tr, bv.Options{})
		if err != nil {
			return solveRec{err: err}
		}
		t3 := time.Now()
		st := b.Stats()
		calls = append(calls,
			call{spanEncode, t0, t1, nil},
			call{spanTriplets, t1, t2, nil},
			call{spanBlast, t2, t3, map[string]any{
				"vars": s.NumVariables(), "literals": s.Stats.NumLiterals,
				"gates_emitted": st.GatesEmitted, "gates_reused": st.GatesReused(),
			}})
	}

	var firstAt time.Time
	cfg := solveConfig(in, func(int64, int64) {
		if firstAt.IsZero() {
			firstAt = time.Now()
		}
	})
	t0 := time.Now()
	sol, err := core.SolveContext(ctx, in.sys, cfg)
	t1 := time.Now()
	r := solveRec{latency: t1.Sub(t0), sol: sol, err: err}
	if !firstAt.IsZero() {
		r.first = firstAt.Sub(t0)
	}
	if rec == nil || err != nil {
		return r
	}

	solveAttrs := map[string]any{
		"status": sol.Status.String(), "cost": sol.Cost, "solve_calls": sol.SolveCalls,
		"conflicts": sol.Conflicts, "first_feasible_ms": ms(r.first),
	}
	calls = append(calls, call{spanCore, t0, t1, solveAttrs})
	if sol.Feasible {
		t2 := time.Now()
		rta.Analyze(in.sys, sol.Allocation)
		calls = append(calls, call{spanAnalyze, t2, time.Now(), nil})
	}
	root := rec.add(0, req, spanSolve, begin, time.Now(), map[string]any{"instance": in.name, "status": sol.Status.String()})
	var coreID int
	for _, c := range calls {
		id := rec.add(root, req, c.name, c.start, c.end, c.attrs)
		if c.name == spanCore {
			coreID = id
		}
	}
	// Solution.Iters carries each probe's duration but not its start, so
	// the probe spans are laid back to back, ending where the call ended.
	end := t1
	for i := len(sol.Iters) - 1; i >= 0; i-- {
		it := sol.Iters[i]
		rec.add(coreID, req, spanProbe, end.Add(-it.Duration), end, map[string]any{
			"call": it.Call, "status": it.Status.String(), "conflicts": it.Conflicts, "derived": "Solution.Iters",
		})
		end = end.Add(-it.Duration)
	}
	return r
}

// checkBatch is the verdict gate of a batch run: every solve must match
// the recorded verdict, and each distinct feasible allocation must pass
// checkAllocation.
func checkBatch(insts []instance, solves []solveRec, expected map[string]verdict, out *outcome) {
	seen := map[string]bool{}
	for _, r := range solves {
		in := insts[r.inst]
		if r.err != nil {
			out.failed++
			out.wrong = append(out.wrong, fmt.Sprintf("%s: %v", in.name, r.err))
			continue
		}
		got := verdict{Status: r.sol.Status.String(), Cost: r.sol.Cost}
		if err := checkVerdict(in.name, got, expected); err != nil {
			out.failed++
			out.wrong = append(out.wrong, err.Error())
			continue
		}
		if r.sol.Status != opt.Optimal {
			continue
		}
		// An allocation already checked for this instance is skipped; one
		// that fails to marshal is simply checked again.
		if key, err := json.Marshal(core.AllocationToSpec(in.sys, r.sol.Allocation, r.sol.Cost)); err == nil {
			if seen[in.name+string(key)] {
				continue
			}
			seen[in.name+string(key)] = true
		}
		if err := checkAllocation(in.sys, in.obj, r.sol.Allocation, r.sol.Cost); err != nil {
			out.failed++
			out.wrong = append(out.wrong, fmt.Sprintf("%s: %v", in.name, err))
		}
	}
	out.gateRan = true
}
