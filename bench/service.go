package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"sync"
	"time"

	"satalloc/internal/cli"
	"satalloc/internal/core"
	"satalloc/internal/flightrec"
	"satalloc/internal/metrics"
	"satalloc/internal/model"
	"satalloc/internal/rta"
	"satalloc/internal/serve"
)

// Load shape of service-steady, calibrated on a 2-CPU host where the pool
// of 2 completed 80-100 jobs/s of 2-ECU/4-task rings when saturated
// (bench/README.md).
const (
	steadyRate     = 30.0 // jobs/s, about a third of capacity
	resubmitShare  = 0.25 // share of submissions that repeat a finished spec
	pollEvery      = 5 * time.Millisecond
	summaryEvery   = time.Second
	jobTimeout     = 30 * time.Second
	resubmitsAfter = 50 // traced runs resubmit up to this many solved specs
)

// service is an in-process allocation service with cmd/allocd's flag
// defaults, served on a loopback listener, plus the load generator's two
// clients: one for submissions and one for polls, each limited to a single
// connection.
type service struct {
	srv    *serve.Server
	hs     *http.Server
	served chan error
	base   string
	dir    string
	post   *http.Client
	get    *http.Client
}

func oneConnClient() *http.Client {
	return &http.Client{Timeout: jobTimeout, Transport: &http.Transport{
		MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
	}}
}

func startService(wrap func(net.Listener) net.Listener) (*service, error) {
	dir, err := os.MkdirTemp("", "satbench-allocd-")
	if err != nil {
		return nil, err
	}
	registry := metrics.New()
	srv, err := serve.New(serve.Options{
		Pool:         cli.DefaultWorkers(),
		QueueCap:     256,
		JobTimeout:   60 * time.Second,
		SolveWorkers: 1,
		MaxAttempts:  3,
		DataDir:      dir,
		Metrics:      serve.NewMetrics(registry),
		Solver:       metrics.NewSolverMetrics(registry),
		Recorder:     flightrec.New(flightrec.DefaultCapacity),
	})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		os.RemoveAll(dir)
		return nil, err
	}
	if wrap != nil {
		ln = wrap(ln)
	}
	mux := http.NewServeMux()
	srv.Register(mux)
	s := &service{
		srv: srv, hs: &http.Server{Handler: mux}, served: make(chan error, 1),
		base: "http://" + ln.Addr().String(), dir: dir,
		post: oneConnClient(), get: oneConnClient(),
	}
	go func() { s.served <- s.hs.Serve(ln) }()
	return s, nil
}

// close drains the service (every job has settled by then), stops the
// listener and removes the journal directory.
func (s *service) close() error {
	s.post.CloseIdleConnections()
	s.get.CloseIdleConnections()
	err := s.srv.Drain(5 * time.Second)
	s.hs.Close()
	if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if rerr := os.RemoveAll(s.dir); err == nil {
		err = rerr
	}
	return err
}

// call makes one request and decodes a 2xx JSON answer into out.
func (s *service) call(c *http.Client, method, path string, body []byte, out any) (int, error) {
	req, err := http.NewRequest(method, s.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if resp.StatusCode/100 == 2 && out != nil {
		if err := json.Unmarshal(b, out); err != nil {
			return resp.StatusCode, fmt.Errorf("%s %s: %w", method, path, err)
		}
	}
	return resp.StatusCode, nil
}

// job is one submission and what the generator saw of it.
type job struct {
	spec     int // index into the run's spec list
	resubmit bool
	// due is when the schedule wanted the POST sent; zero means "send
	// now", for the closed-loop passes of traced runs.
	due, sent, acked, seen, first time.Time
	code                          int
	cacheHit                      bool
	id                            string
	status                        serve.Status
	polls                         [][2]time.Time
	err                           error
	counted                       bool // part of the timed load, not a traced run's extra pass
	done                          func()
}

// exact reports whether the job ended in an exact verdict.
func (j *job) exact() bool {
	r := j.status.Result
	return j.err == nil && (j.status.State == serve.StateDone || j.cacheHit) &&
		r != nil && (r.Status == "optimal" || r.Status == "infeasible")
}

// generator puts load on the service: the calling goroutine submits, and
// one poller goroutine follows accepted jobs to their terminal state and
// samples the queue depth once a second.
type generator struct {
	svc   *service
	specs [][]byte

	mu      sync.Mutex
	open    []*job
	backlog []summarySample

	stop   chan struct{}
	polled chan struct{}
}

type summarySample struct {
	start, end time.Time
	depth      int
}

func newGenerator(svc *service, specs [][]byte) *generator {
	g := &generator{svc: svc, specs: specs, stop: make(chan struct{}), polled: make(chan struct{})}
	go g.poll()
	return g
}

// close stops the poller and waits for it.
func (g *generator) close() {
	close(g.stop)
	<-g.polled
}

// runOpen submits jobs at their due times, whatever earlier jobs are
// doing (a zero due time means now), and returns once every one of them
// has settled: verdict, error, shed or timeout.
func (g *generator) runOpen(jobs []*job) {
	var wg sync.WaitGroup
	wg.Add(len(jobs))
	for _, j := range jobs {
		j.done = wg.Done
		if j.due.IsZero() {
			j.due = time.Now()
		} else if wait := time.Until(j.due); wait > 0 {
			time.Sleep(wait)
		}
		g.submit(j)
	}
	wg.Wait()
}

func (g *generator) submit(j *job) {
	j.sent = time.Now()
	j.code, j.err = g.svc.call(g.svc.post, http.MethodPost, "/jobs", g.specs[j.spec], &j.status)
	j.acked = time.Now()
	switch {
	case j.err != nil:
	case j.code == http.StatusAccepted:
		j.id = j.status.ID
		g.mu.Lock()
		g.open = append(g.open, j)
		g.mu.Unlock()
		return
	case j.code == http.StatusOK && j.status.CacheHit:
		j.cacheHit = true
		j.seen = j.acked
		if j.status.Result != nil && j.status.Result.Feasible {
			j.first = j.acked
		}
	default: // 429 and 503 are sheds
		j.err = fmt.Errorf("POST /jobs: HTTP %d", j.code)
	}
	j.done()
}

func (g *generator) poll() {
	defer close(g.polled)
	tick := time.NewTicker(pollEvery)
	defer tick.Stop()
	nextSummary := time.Now()
	for {
		select {
		case <-g.stop:
			return
		case <-tick.C:
		}
		g.mu.Lock()
		open := append([]*job(nil), g.open...)
		g.mu.Unlock()
		for _, j := range open {
			if g.pollJob(j) {
				g.settle(j)
			}
		}
		if now := time.Now(); now.After(nextSummary) {
			nextSummary = now.Add(summaryEvery)
			var summary serve.Summary
			if _, err := g.svc.call(g.svc.get, http.MethodGet, "/jobs/summary", nil, &summary); err == nil {
				g.mu.Lock()
				g.backlog = append(g.backlog, summarySample{now, time.Now(), summary.QueueDepth})
				g.mu.Unlock()
			}
		}
	}
}

// pollJob reads one job's status and reports whether it has settled.
func (g *generator) pollJob(j *job) bool {
	t0 := time.Now()
	var st serve.Status
	code, err := g.svc.call(g.svc.get, http.MethodGet, "/jobs/"+j.id, nil, &st)
	t1 := time.Now()
	j.polls = append(j.polls, [2]time.Time{t0, t1})
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("GET /jobs/%s: HTTP %d", j.id, code)
	}
	switch {
	case err != nil:
		j.err = err
		return true
	case j.first.IsZero() && st.BoundUpper >= 0:
		j.first = t1
	}
	j.status = st
	if st.State.Terminal() {
		j.seen = t1
		return true
	}
	if t1.Sub(j.sent) > jobTimeout {
		j.err = fmt.Errorf("job %s not terminal after %v", j.id, jobTimeout)
		return true
	}
	return false
}

func (g *generator) settle(j *job) {
	g.mu.Lock()
	for i, o := range g.open {
		if o == j {
			g.open = append(g.open[:i], g.open[i+1:]...)
			break
		}
	}
	g.mu.Unlock()
	j.done()
}

// serviceInputs are a service run's generated specs: the systems for the
// verdict gate and the request bodies.
type serviceInputs struct {
	systems []*model.System
	bodies  [][]byte
}

func (in *serviceInputs) add(sys *model.System) error {
	b, err := specJSON(sys)
	if err != nil {
		return err
	}
	in.systems = append(in.systems, sys)
	in.bodies = append(in.bodies, b)
	return nil
}

// makeInputs generates every spec a run may submit. Generator seeds start
// at seed·10⁶ so different -seed values never share a spec; spec 0 is the
// warm-up job.
func makeInputs(cfg config, count int) (*serviceInputs, error) {
	in := &serviceInputs{}
	for i := 0; i <= count; i++ {
		if err := in.add(ringSpec(cfg.seed*1_000_000 + int64(i))); err != nil {
			return nil, err
		}
	}
	return in, nil
}

func runService(cfg config, rec *recorder, rep *report) (*outcome, error) {
	count := int(steadyRate * cfg.window.Seconds())
	var in *serviceInputs
	var svc *service
	var setup []float64
	for i := 0; i < cfg.setups; i++ {
		if svc != nil {
			if err := svc.close(); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		var err error
		if in, err = makeInputs(cfg, count); err != nil {
			return nil, err
		}
		if svc, err = startService(cfg.wrap); err != nil {
			return nil, err
		}
		g := newGenerator(svc, in.bodies)
		warm := &job{spec: 0}
		g.runOpen([]*job{warm})
		g.close()
		if !warm.exact() {
			svc.close()
			return nil, fmt.Errorf("warm-up job: %v (state %s)", warm.err, warm.status.State)
		}
		setup = append(setup, time.Since(t0).Seconds())
	}
	rep.set("setup_s", percentile(setup, 50), len(setup))

	g := newGenerator(svc, in.bodies)
	cpu0, _, err := usage()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	jobs := steady(cfg, g, start)
	window := time.Since(start)
	cpu1, rss, err := usage()
	if err != nil {
		g.close()
		svc.close()
		return nil, err
	}

	var lat, first, lags []float64
	var verdicts int
	var last time.Time
	for _, j := range jobs {
		lags = append(lags, ms(j.sent.Sub(j.due)))
		if !j.exact() {
			continue
		}
		verdicts++
		if j.seen.After(last) {
			last = j.seen
		}
		lat = append(lat, ms(j.seen.Sub(j.due)))
		if !j.first.IsZero() {
			first = append(first, ms(j.first.Sub(j.due)))
		}
	}
	if verdicts > 0 {
		rep.set("throughput_per_s", float64(verdicts)/last.Sub(jobs[0].due).Seconds(), verdicts)
	}
	if len(lat) > 0 {
		rep.set("latency_p50_ms", percentile(lat, 50), len(lat))
		rep.set("latency_p90_ms", percentile(lat, 90), len(lat))
	}
	if len(first) > 0 {
		rep.set("first_feasible_p50_ms", percentile(first, 50), len(first))
	}
	if verdicts > 0 {
		rep.set("cpu_s_per_verdict", (cpu1-cpu0).Seconds()/float64(verdicts), verdicts)
	}
	rep.set("peak_rss_mb", rss, 0)
	lag := percentile(lags, 90)
	rep.set("gen.lag_p90_ms", lag, len(lags))
	if lag > 5 {
		rep.note("generator lag p90 %.1f ms exceeds 5 ms: the open loop fell behind its schedule", lag)
	}
	rep.note("%d jobs (%d verdicts) in %.1fs", len(jobs), verdicts, window.Seconds())

	if rec != nil && !hasResubmits(jobs) {
		jobs = append(jobs, resubmitPass(g, jobs)...)
	}
	g.close()
	if rec != nil {
		recordJobs(svc, rec, jobs, in, g.backlog)
	}
	out := &outcome{attempted: len(jobs)}
	checkService(in, jobs, out)
	if err := svc.close(); err != nil {
		return nil, err
	}
	return out, nil
}

// steady sends rate·window jobs at fixed intervals. A quarter of them,
// after the first two seconds, resubmit a spec first sent one to two
// seconds earlier, whose job has finished by then, so they are answered
// from the cache.
func steady(cfg config, g *generator, start time.Time) []*job {
	rng := rand.New(rand.NewSource(cfg.seed))
	rate := steadyRate
	n := int(rate * cfg.window.Seconds())
	interval := time.Duration(float64(time.Second) / rate)
	jobs := make([]*job, n)
	fresh := 1 // spec 0 is the warm-up job
	for i := range jobs {
		j := &job{due: start.Add(time.Duration(i) * interval), counted: true}
		if back := int(rate); i >= 2*back && rng.Float64() < resubmitShare {
			j.resubmit = true
			j.spec = jobs[i-back-rng.Intn(back)].spec
		} else {
			j.spec = fresh
			fresh++
		}
		jobs[i] = j
	}
	g.runOpen(jobs)
	return jobs
}

func hasResubmits(jobs []*job) bool {
	for _, j := range jobs {
		if j.resubmit {
			return true
		}
	}
	return false
}

// resubmitPass resubmits up to resubmitsAfter specs that ended in a
// verdict, one at a time, after the timed window, so a traced run measures
// the cache path even when its load had no repeats.
func resubmitPass(g *generator, jobs []*job) []*job {
	var again []*job
	seen := map[int]bool{}
	for _, j := range jobs {
		if len(again) == resubmitsAfter {
			break
		}
		if j.exact() && !j.cacheHit && !seen[j.spec] {
			seen[j.spec] = true
			again = append(again, &job{spec: j.spec, resubmit: true})
		}
	}
	for _, j := range again {
		g.runOpen([]*job{j})
	}
	return again
}

// recordJobs turns each job into spans: the job's root from due time to
// verdict, its POST and polls, the server's own spans for the job read
// back from GET /jobs/{id}/trace, and an rta.Analyze of the answer.
func recordJobs(svc *service, rec *recorder, jobs []*job, in *serviceInputs, backlog []summarySample) {
	for i, s := range backlog {
		rec.add(0, fmt.Sprintf("summary%03d", i), spanSummary, s.start, s.end, map[string]any{"queue_depth": s.depth})
	}
	for i, j := range jobs {
		req := fmt.Sprintf("j%05d", i)
		end := j.seen
		if end.IsZero() {
			end = j.acked
		}
		attrs := map[string]any{"spec": j.spec, "resubmit": j.resubmit,
			"cache_hit": j.cacheHit, "counted": j.counted && j.exact(), "job": j.id}
		if r := j.status.Result; r != nil {
			attrs["status"] = r.Status
		}
		root := rec.add(0, req, spanJob, j.due, end, attrs)
		rec.add(root, req, spanSubmit, j.sent, j.acked, map[string]any{"code": j.code})
		for _, p := range j.polls {
			rec.add(root, req, spanStatus, p[0], p[1], nil)
		}
		if j.id != "" {
			var tr serve.Trace
			if _, err := svc.call(svc.get, http.MethodGet, "/jobs/"+j.id+"/trace", nil, &tr); err == nil {
				recordServerSpans(rec, root, req, j.sent, tr.Spans)
			}
		}
		if r := j.status.Result; j.exact() && r.Allocation != nil {
			if a, err := r.Allocation.ToAllocation(in.systems[j.spec]); err == nil {
				t0 := time.Now()
				rta.Analyze(in.systems[j.spec], a)
				rec.add(root, req, spanAnalyze, t0, time.Now(), nil)
			}
		}
	}
}

// recordServerSpans adds the service's spans of one job under the job's
// root. Their offsets count from the job's creation inside the POST, so
// they are placed from the POST's start. A span is added once its parent
// has been, so the parent links survive the renumbering.
func recordServerSpans(rec *recorder, root int, req string, base time.Time, raw []json.RawMessage) {
	type serverSpan struct {
		Span    string         `json:"span"`
		ID      int64          `json:"id"`
		Parent  int64          `json:"parent"`
		StartUS int64          `json:"start_us"`
		DurUS   int64          `json:"dur_us"`
		Attrs   map[string]any `json:"attrs"`
	}
	var spans []serverSpan
	for _, r := range raw {
		var s serverSpan
		if json.Unmarshal(r, &s) == nil {
			spans = append(spans, s)
		}
	}
	ids := map[int64]int{}
	for len(ids) < len(spans) {
		progress := false
		for _, s := range spans {
			if _, done := ids[s.ID]; done {
				continue
			}
			parent, ok := ids[s.Parent]
			if s.Parent == 0 {
				parent, ok = root, true
			}
			if !ok {
				continue
			}
			name, call := serverSpanName(s.Span)
			attrs := map[string]any{"source": "server"}
			for k, v := range s.Attrs {
				attrs[k] = v
			}
			if call > 0 {
				attrs["call"] = call
			}
			start := base.Add(time.Duration(s.StartUS) * time.Microsecond)
			ids[s.ID] = rec.add(parent, req, name, start, start.Add(time.Duration(s.DurUS)*time.Microsecond), attrs)
			progress = true
		}
		if !progress {
			return // a parent evicted from the job's span ring
		}
	}
}

// checkService is the verdict gate of a service run: every verdict must
// agree with the exhaustive oracle and every feasible allocation must pass
// checkAllocation. Each distinct spec and answer is checked once, on
// GOMAXPROCS goroutines, after the timed window.
func checkService(in *serviceInputs, jobs []*job, out *outcome) {
	type task struct {
		spec int
		res  *serve.Result
	}
	var tasks []task
	seen := map[string]bool{}
	for _, j := range jobs {
		if !j.exact() {
			out.failed++
			if j.err == nil {
				out.wrong = append(out.wrong, fmt.Sprintf("spec %d: job ended %s without an exact verdict", j.spec, j.status.State))
			}
			continue
		}
		// An answer already queued for this spec is skipped; one whose
		// allocation fails to marshal is simply checked again.
		r := j.status.Result
		if key, err := json.Marshal(r.Allocation); err == nil {
			k := fmt.Sprintf("%d/%s/%d/%s", j.spec, r.Status, r.Cost, key)
			if seen[k] {
				continue
			}
			seen[k] = true
		}
		tasks = append(tasks, task{j.spec, r})
	}
	errs := make([]error, len(tasks))
	var wg sync.WaitGroup
	work := make(chan int)
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				t := tasks[i]
				sys := in.systems[t.spec]
				errs[i] = checkAgainstExhaustive(sys, verdict{t.res.Status, t.res.Cost})
				if errs[i] == nil && t.res.Feasible {
					errs[i] = checkServiceAllocation(sys, t.res)
				}
			}
		}()
	}
	for i := range tasks {
		work <- i
	}
	close(work)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			out.failed++
			out.wrong = append(out.wrong, fmt.Sprintf("spec %d: %v", tasks[i].spec, err))
		}
	}
	out.gateRan = true
}

func checkServiceAllocation(sys *model.System, r *serve.Result) error {
	if r.Allocation == nil {
		return errors.New("feasible verdict without an allocation")
	}
	a, err := r.Allocation.ToAllocation(sys)
	if err != nil {
		return err
	}
	return checkAllocation(sys, core.MinimizeTRT, a, r.Cost)
}

// servicePass ends a traced batch run: the run's instances that minimize
// TRT, the only objective the service solves, go through the in-process
// service once and are then resubmitted once, so the serve.* layers are
// measured on this workload's specs. The service's verdicts must equal
// the recorded ones.
func servicePass(cfg config, insts []instance, expected map[string]verdict, rec *recorder, out *outcome) error {
	in := &serviceInputs{}
	var names []string
	for _, inst := range insts {
		if inst.obj != core.MinimizeTRT {
			continue
		}
		if err := in.add(inst.sys); err != nil {
			return err
		}
		names = append(names, inst.name)
	}
	if len(names) == 0 {
		return nil
	}
	svc, err := startService(cfg.wrap)
	if err != nil {
		return err
	}
	g := newGenerator(svc, in.bodies)
	var jobs []*job
	for i := range names {
		jobs = append(jobs, &job{spec: i, counted: true})
	}
	g.runOpen(jobs)
	jobs = append(jobs, resubmitPass(g, jobs)...)
	g.close()
	recordJobs(svc, rec, jobs, in, g.backlog)
	for _, j := range jobs {
		out.attempted++
		if !j.exact() {
			out.failed++
			out.wrong = append(out.wrong, fmt.Sprintf("service pass %s: no exact verdict (%v)", names[j.spec], j.err))
			continue
		}
		r := j.status.Result
		if err := checkVerdict(names[j.spec], verdict{r.Status, r.Cost}, expected); err != nil {
			out.failed++
			out.wrong = append(out.wrong, "service pass "+err.Error())
		}
	}
	return svc.close()
}
