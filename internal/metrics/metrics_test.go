package metrics

import (
	"bytes"
	"encoding/json"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := New()
	c := r.Counter("test_total", "a counter", nil)
	c.Inc()
	c.Add(4)
	c.Add(-7) // counters never go down
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	g := r.Gauge("test_gauge", "a gauge", nil)
	g.Set(10)
	g.Add(-3)
	if got := g.Value(); got != 7 {
		t.Fatalf("gauge = %d, want 7", got)
	}
	// Same name+labels returns the same series.
	if r.Counter("test_total", "a counter", nil).Value() != 5 {
		t.Fatal("re-lookup did not return the existing series")
	}
	// Distinct labels are distinct series.
	r.Counter("labeled_total", "", Labels{"k": "a"}).Add(1)
	r.Counter("labeled_total", "", Labels{"k": "b"}).Add(2)
	if got := r.Counter("labeled_total", "", Labels{"k": "b"}).Value(); got != 2 {
		t.Fatalf("labeled series = %d, want 2", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := New()
	h := r.Histogram("hist", "", []int64{1, 5, 10}, nil)
	for _, v := range []int64{0, 1, 2, 5, 6, 10, 11, 1000} {
		h.Observe(v)
	}
	s := h.Snapshot()
	// Buckets: ≤1: {0,1}=2, ≤5: {2,5}=2, ≤10: {6,10}=2, +Inf: {11,1000}=2.
	want := []int64{2, 2, 2, 2}
	for i, w := range want {
		if s.Counts[i] != w {
			t.Fatalf("bucket %d = %d, want %d (snapshot %+v)", i, s.Counts[i], w, s)
		}
	}
	if s.Count != 8 || s.Sum != 0+1+2+5+6+10+11+1000 {
		t.Fatalf("count/sum wrong: %+v", s)
	}
}

func TestNilSafety(t *testing.T) {
	var r *Registry
	c := r.Counter("x", "", nil)
	g := r.Gauge("x", "", nil)
	h := r.Histogram("x", "", []int64{1}, nil)
	c.Inc()
	c.Add(3)
	g.Set(1)
	g.Add(1)
	h.Observe(1)
	if c.Value() != 0 || g.Value() != 0 || h.Snapshot().Count != 0 {
		t.Fatal("nil collectors must read as zero")
	}
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}

	var m *SolverMetrics
	if m.SearchHook() != nil || m.ConflictHook() != nil {
		t.Fatal("nil SolverMetrics must hand out nil hooks")
	}
	m.RecordIter(time.Second, true)
	m.RecordBounds(1, 2)
	m.RecordIncumbent(3)
	m.RecordSolveStart()
	m.RecordSolveEnd("optimal")
	m.RecordPanic()
}

// promLine matches a sample line of the text exposition format.
var promLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="[^"]*"(,[a-zA-Z_][a-zA-Z0-9_]*="[^"]*")*\})? -?[0-9]+$`)

// parsePrometheus asserts every line is a comment or a well-formed sample
// and returns the samples by full series name.
func parsePrometheus(t *testing.T, text string) map[string]int64 {
	t.Helper()
	out := map[string]int64{}
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			continue
		}
		if !promLine.MatchString(line) {
			t.Fatalf("malformed exposition line: %q", line)
		}
		i := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseInt(line[i+1:], 10, 64)
		if err != nil {
			t.Fatalf("bad value in %q: %v", line, err)
		}
		out[line[:i]] = v
	}
	return out
}

func TestPrometheusExposition(t *testing.T) {
	r := New()
	r.Counter("app_requests_total", "requests served", Labels{"code": "200"}).Add(3)
	r.Counter("app_requests_total", "requests served", Labels{"code": "500"}).Add(1)
	r.Gauge("app_queue_depth", "queued items", nil).Set(-4)
	h := r.Histogram("app_latency_ms", "latency", []int64{10, 100}, nil)
	h.Observe(5)
	h.Observe(50)
	h.Observe(5000)

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, header := range []string{
		"# TYPE app_requests_total counter",
		"# TYPE app_queue_depth gauge",
		"# TYPE app_latency_ms histogram",
		"# HELP app_requests_total requests served",
	} {
		if !strings.Contains(text, header) {
			t.Fatalf("missing %q in:\n%s", header, text)
		}
	}
	samples := parsePrometheus(t, text)
	want := map[string]int64{
		`app_requests_total{code="200"}`: 3,
		`app_requests_total{code="500"}`: 1,
		`app_queue_depth`:                -4,
		`app_latency_ms_bucket{le="10"}`: 1,
		// Histogram buckets are cumulative in the exposition.
		`app_latency_ms_bucket{le="100"}`:  2,
		`app_latency_ms_bucket{le="+Inf"}`: 3,
		`app_latency_ms_sum`:               5055,
		`app_latency_ms_count`:             3,
	}
	for k, v := range want {
		if samples[k] != v {
			t.Errorf("%s = %d, want %d", k, samples[k], v)
		}
	}
	// One TYPE header per family, even with multiple series.
	if n := strings.Count(text, "# TYPE app_requests_total counter"); n != 1 {
		t.Fatalf("family header appears %d times", n)
	}
}

func TestJSONExposition(t *testing.T) {
	r := New()
	r.Counter("c_total", "", nil).Add(7)
	r.Histogram("h", "", []int64{1}, nil).Observe(9)
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var out map[string]json.RawMessage
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("JSON exposition not parseable: %v\n%s", err, buf.String())
	}
	if string(out["c_total"]) != "7" {
		t.Fatalf("c_total = %s", out["c_total"])
	}
	var hs HistogramSnapshot
	if err := json.Unmarshal(out["h"], &hs); err != nil || hs.Count != 1 || hs.Sum != 9 {
		t.Fatalf("histogram JSON wrong: %+v err=%v", hs, err)
	}
}

func TestSearchHookDeltasAcrossFreshSolvers(t *testing.T) {
	r := New()
	m := NewSolverMetrics(r)
	// Solver 1 reports cumulative counters up to 100 conflicts.
	h1 := m.SearchHook()
	h1(40, 10, 1000, 1, 5, 0, 5, 3)
	h1(100, 30, 3000, 3, 20, 8, 12, 7)
	// A fresh solver restarts its cumulative counters at zero; a fresh
	// hook keeps the mirrored totals monotone.
	h2 := m.SearchHook()
	h2(50, 5, 500, 2, 10, 1, 9, 2)
	if got := m.Conflicts.Value(); got != 150 {
		t.Fatalf("conflicts = %d, want 150", got)
	}
	if got := m.Restarts.Value(); got != 5 {
		t.Fatalf("restarts = %d, want 5", got)
	}
	if got := m.LearntDB.Value(); got != 9 {
		t.Fatalf("learnt DB gauge = %d, want 9 (last report wins)", got)
	}
}

func TestSolverMetricsRecords(t *testing.T) {
	r := New()
	m := NewSolverMetrics(r)
	if m.BoundLower.Value() != -1 || m.IncumbentCost.Value() != -1 {
		t.Fatal("unknown bounds must read -1")
	}
	m.RecordBounds(3, 9)
	if m.BoundGap.Value() != 6 {
		t.Fatalf("gap = %d", m.BoundGap.Value())
	}
	m.RecordIncumbent(9)
	m.RecordIter(25*time.Millisecond, false)
	m.RecordIter(time.Millisecond, true)
	if m.SolveCalls.Value() != 2 || m.BudgetHits.Value() != 1 {
		t.Fatal("iteration counters wrong")
	}
	m.RecordSolveEnd("optimal")
	m.RecordSolveEnd("optimal")
	m.RecordSolveEnd("feasible")
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	samples := parsePrometheus(t, buf.String())
	if samples[`satalloc_core_solves_completed_total{status="optimal"}`] != 2 ||
		samples[`satalloc_core_solves_completed_total{status="feasible"}`] != 1 {
		t.Fatalf("status-labelled completions wrong:\n%s", buf.String())
	}
	conflictHook := m.ConflictHook()
	conflictHook(3, 2, 4)
	if m.LBD.Snapshot().Count != 1 || m.Backjump.Snapshot().Count != 1 {
		t.Fatal("conflict hook did not observe")
	}
}

// TestConcurrentUse exercises every collector from many goroutines; run
// under -race this proves the atomic paths.
func TestConcurrentUse(t *testing.T) {
	r := New()
	m := NewSolverMetrics(r)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			hook := m.SearchHook()
			conflict := m.ConflictHook()
			for j := 0; j < 1000; j++ {
				hook(int64(j), int64(j), int64(j), int64(j/10), int64(j/5), int64(j/7), j%20, j%50)
				conflict(j%30, j%10, j%8)
				m.RecordBounds(int64(j), int64(j+10))
				m.RecordIncumbent(int64(j))
				r.Counter("dyn_total", "", Labels{"g": strconv.Itoa(i % 2)}).Inc()
			}
		}(i)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			var buf bytes.Buffer
			if err := r.WritePrometheus(&buf); err != nil {
				t.Errorf("exposition during writes: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	<-done
	if got := r.Counter("dyn_total", "", Labels{"g": "0"}).Value() +
		r.Counter("dyn_total", "", Labels{"g": "1"}).Value(); got != 8000 {
		t.Fatalf("dynamic counters lost increments: %d", got)
	}
	if m.LBD.Snapshot().Count != 8000 {
		t.Fatalf("LBD observations lost: %d", m.LBD.Snapshot().Count)
	}
}

func TestKindConflictPanics(t *testing.T) {
	r := New()
	r.Counter("clash", "", nil)
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter as a gauge must panic")
		}
	}()
	r.Gauge("clash", "", nil)
}
