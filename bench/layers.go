package main

import (
	"math"
	"strconv"
	"strings"
)

type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run: what a user of the
// allocator waits for or pays. BENCHMARK.json lists the same names and
// units.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"throughput_per_s", "verdicts/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"first_feasible_p50_ms", "ms"},
	{"cpu_s_per_verdict", "CPU-s"},
	{"peak_rss_mb", "MiB"},
}

// perLayer are the metrics of a traced run, one group per module, all
// derived from the recorded spans by layerMetrics. Pipeline timings are
// means per verdict, so encode + triplet + blast + both probe kinds +
// unattributed add up to core.solve_ms exactly.
var perLayer = []metricDef{
	{"encode.encode_ms", "ms"},
	{"encode.share_pct", "%"},
	{"ir.triplet_ms", "ms"},
	{"ir.share_pct", "%"},
	{"bv.blast_ms", "ms"},
	{"bv.share_pct", "%"},
	{"bv.vars", "count"},
	{"bv.literals", "count"},
	{"bv.gate_reuse_ratio", "fraction"},
	{"opt.probes", "count"},
	{"opt.unsat_probes", "count"},
	{"sat.first_probe_ms", "ms"},
	{"sat.sat_probe_ms", "ms"},
	{"sat.sat_probe_share_pct", "%"},
	{"sat.unsat_probe_ms", "ms"},
	{"sat.unsat_probe_share_pct", "%"},
	{"sat.conflicts", "count"},
	{"sat.conflicts_per_s", "1/s"},
	{"core.solve_ms", "ms"},
	{"core.unattributed_ms", "ms"},
	{"core.unattributed_share_pct", "%"},
	{"rta.verify_ms", "ms"},
	{"serve.submit_p50_ms", "ms"},
	{"serve.submit_p90_ms", "ms"},
	{"serve.cache_hit_p50_ms", "ms"},
	{"serve.cache_hit_ratio", "fraction"},
	{"serve.status_p50_ms", "ms"},
	{"serve.solve_p50_ms", "ms"},
	{"serve.solve_p90_ms", "ms"},
	{"serve.wait_p50_ms", "ms"},
	{"serve.wait_p90_ms", "ms"},
	{"serve.backlog_max", "count"},
	{"trace.latency_p50_ms", "ms"},
}

// Span names: the public call each span times. Server-side spans read
// back from GET /jobs/{id}/trace are renamed to the same calls (see
// serverNames), so batch and service runs share one set of layer rules.
const (
	spanSolve    = "solve" // root of a batch solve
	spanJob      = "job"   // root of a service job: due time to verdict
	spanEncode   = "encode.Encode"
	spanTriplets = "ir.ToTriplets"
	spanBlast    = "bv.BlastWith"
	spanProbe    = "sat.Solve" // one SOLVE call of the binary search
	spanCore     = "core.SolveContext"
	spanAttempt  = "serve.attempt" // the service's solve attempt around core.SolveContext
	spanAnalyze  = "rta.Analyze"
	spanSubmit   = "http.POST /jobs"
	spanStatus   = "http.GET /jobs/{id}"
	spanSummary  = "http.GET /jobs/summary"
)

// serverNames maps the allocation service's own span names to the calls
// they time.
var serverNames = map[string]string{
	"Attempt":  spanAttempt,
	"Encode":   spanEncode,
	"Triplet":  spanTriplets,
	"BitBlast": spanBlast,
	"Solve":    spanProbe,
}

// serverSpanName renames a server span ("Solve[3]" → sat.Solve, call 3).
func serverSpanName(name string) (string, int) {
	base, call := name, 0
	if i := strings.IndexByte(name, '['); i > 0 && strings.HasSuffix(name, "]") {
		base = name[:i]
		call, _ = strconv.Atoi(name[i+1 : len(name)-1])
	}
	if n, ok := serverNames[base]; ok {
		return n, call
	}
	return "serve." + base, call
}

func num(v any) float64 {
	switch x := v.(type) {
	case int:
		return float64(x)
	case int64:
		return float64(x)
	case float64:
		return x
	}
	return 0
}

func mean(xs []float64) float64 { return sum(xs) / float64(len(xs)) }

// layerMetrics derives the per-layer metrics from a traced run's spans.
// Pipeline layers come from batch solves when the run made any, otherwise
// from the service's job traces; service layers come from jobs.
func layerMetrics(spans []span, rep *report) {
	byReq := map[string][]span{}
	var reqs []string
	batch := false
	backlog := 0.0
	for _, s := range spans {
		if _, ok := byReq[s.Req]; !ok {
			reqs = append(reqs, s.Req)
		}
		byReq[s.Req] = append(byReq[s.Req], s)
		batch = batch || (s.Parent == 0 && s.Name == spanSolve)
		if s.Name == spanSummary {
			backlog = math.Max(backlog, num(s.Attrs["queue_depth"]))
		}
	}
	var p pipelineLayers
	var sv serviceLayers
	for _, req := range reqs {
		ss := byReq[req]
		root := ss[0]
		if root.Parent != 0 {
			continue
		}
		switch {
		case root.Name == spanSolve:
			p.add(ss)
		case root.Name == spanJob:
			if !batch {
				p.add(ss)
			}
			sv.add(root, ss)
		}
	}
	p.report(rep)
	sv.report(rep)
	rep.set("serve.backlog_max", backlog, 0)
	traced := sv.latency
	if batch {
		traced = p.total
	}
	if len(traced) > 0 {
		rep.set("trace.latency_p50_ms", percentile(traced, 50), len(traced))
	}
}

// pipelineLayers holds per-verdict layer times (ms) and counts.
type pipelineLayers struct {
	encode, triplet, blast, first, sat, unsat, total, unattributed, verify []float64
	vars, literals, probes, unsatProbes, conflicts                         []float64
	emitted, reused                                                        float64
}

func (p *pipelineLayers) add(ss []span) {
	var total, encode, triplet, blast, first, satT, unsatT, conflicts, probes, unsatProbes float64
	for _, s := range ss {
		d := s.dur()
		switch s.Name {
		case spanCore, spanAttempt:
			total += d
		case spanEncode:
			encode += d
		case spanTriplets:
			triplet += d
		case spanBlast:
			blast += d
			p.vars = append(p.vars, num(s.Attrs["vars"]))
			p.literals = append(p.literals, num(s.Attrs["literals"]))
			p.emitted += num(s.Attrs["gates_emitted"])
			p.reused += num(s.Attrs["gates_reused"])
		case spanProbe:
			probes++
			if num(s.Attrs["call"]) == 1 {
				first = d
			}
			switch s.Attrs["status"] {
			case "SAT":
				satT += d
			case "UNSAT":
				unsatT += d
				unsatProbes++
			}
			conflicts += num(s.Attrs["conflicts"])
		case spanAnalyze:
			p.verify = append(p.verify, d)
		}
	}
	if total == 0 {
		return // a cache hit: the request never reached the pipeline
	}
	p.total = append(p.total, total)
	p.encode = append(p.encode, encode)
	p.triplet = append(p.triplet, triplet)
	p.blast = append(p.blast, blast)
	p.first = append(p.first, first)
	p.sat = append(p.sat, satT)
	p.unsat = append(p.unsat, unsatT)
	p.unattributed = append(p.unattributed, total-encode-triplet-blast-satT-unsatT)
	p.probes = append(p.probes, probes)
	p.unsatProbes = append(p.unsatProbes, unsatProbes)
	p.conflicts = append(p.conflicts, conflicts)
}

func (p *pipelineLayers) report(rep *report) {
	n := len(p.total)
	if n == 0 {
		return
	}
	total := sum(p.total)
	timing := func(name string, xs []float64) {
		rep.set(name, mean(xs), n)
	}
	share := func(name string, xs []float64) {
		rep.set(name, 100*sum(xs)/total, n)
	}
	timing("encode.encode_ms", p.encode)
	share("encode.share_pct", p.encode)
	timing("ir.triplet_ms", p.triplet)
	share("ir.share_pct", p.triplet)
	timing("bv.blast_ms", p.blast)
	share("bv.share_pct", p.blast)
	timing("sat.first_probe_ms", p.first)
	timing("sat.sat_probe_ms", p.sat)
	share("sat.sat_probe_share_pct", p.sat)
	timing("sat.unsat_probe_ms", p.unsat)
	share("sat.unsat_probe_share_pct", p.unsat)
	timing("core.solve_ms", p.total)
	timing("core.unattributed_ms", p.unattributed)
	share("core.unattributed_share_pct", p.unattributed)
	if len(p.verify) > 0 {
		rep.set("rta.verify_ms", mean(p.verify), len(p.verify))
	}
	if len(p.vars) > 0 {
		rep.set("bv.vars", mean(p.vars), len(p.vars))
		rep.set("bv.literals", mean(p.literals), len(p.literals))
	}
	if p.emitted+p.reused > 0 {
		rep.set("bv.gate_reuse_ratio", p.reused/(p.emitted+p.reused), len(p.vars))
	}
	rep.set("opt.probes", mean(p.probes), n)
	rep.set("opt.unsat_probes", mean(p.unsatProbes), n)
	rep.set("sat.conflicts", mean(p.conflicts), n)
	if probeMS := sum(p.sat) + sum(p.unsat); probeMS > 0 {
		rep.set("sat.conflicts_per_s", sum(p.conflicts)/(probeMS/1000), n)
	}
}

// serviceLayers holds the per-request times (ms) of the service's calls.
type serviceLayers struct {
	submit, cacheHit, status, solve, wait, latency []float64
	resubmits, hits                                int
}

func (sv *serviceLayers) add(root span, ss []span) {
	var submit, attempt float64
	hit := root.Attrs["cache_hit"] == true
	for _, s := range ss {
		switch s.Name {
		case spanSubmit:
			submit = s.dur()
			switch {
			case hit:
				sv.cacheHit = append(sv.cacheHit, submit)
			case num(s.Attrs["code"]) == 202:
				sv.submit = append(sv.submit, submit)
			}
		case spanStatus:
			sv.status = append(sv.status, s.dur())
		case spanAttempt:
			attempt += s.dur()
		}
	}
	if root.Attrs["resubmit"] == true {
		sv.resubmits++
		if hit {
			sv.hits++
		}
	}
	if root.Attrs["counted"] != true {
		return
	}
	sv.latency = append(sv.latency, root.dur())
	if attempt > 0 {
		sv.solve = append(sv.solve, attempt)
		sv.wait = append(sv.wait, root.dur()-submit-attempt)
	}
}

func (sv *serviceLayers) report(rep *report) {
	pcts := func(name string, xs []float64, ps ...float64) {
		if len(xs) == 0 {
			return
		}
		for _, p := range ps {
			rep.set(strings.Replace(name, "_ms", "_p"+strconv.Itoa(int(p))+"_ms", 1), percentile(xs, p), len(xs))
		}
	}
	pcts("serve.submit_ms", sv.submit, 50, 90)
	pcts("serve.cache_hit_ms", sv.cacheHit, 50)
	pcts("serve.status_ms", sv.status, 50)
	pcts("serve.solve_ms", sv.solve, 50, 90)
	pcts("serve.wait_ms", sv.wait, 50, 90)
	if sv.resubmits > 0 {
		rep.set("serve.cache_hit_ratio", float64(sv.hits)/float64(sv.resubmits), sv.resubmits)
	}
}
