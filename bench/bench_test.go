package main

import (
	"bufio"
	"encoding/json"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	hundred := make([]float64, 100)
	for i := range hundred {
		hundred[i] = float64(100 - i) // 100..1, deliberately unsorted
	}
	ten := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	for _, c := range []struct {
		xs      []float64
		p, want float64
	}{
		{hundred, 50, 50}, {hundred, 90, 90}, {hundred, 99, 99}, {hundred, 100, 100},
		{hundred, 0.5, 1}, {hundred, 57, 57},
		// Ten samples: p90 is the 9th, p95 rounds up to the 10th, and no
		// percentile ever lands between two samples.
		{ten, 50, 5}, {ten, 90, 9}, {ten, 95, 10}, {ten, 91, 10},
		{[]float64{7}, 50, 7}, {[]float64{7}, 99.9, 7},
	} {
		if got := percentile(c.xs, c.p); got != c.want {
			t.Errorf("percentile(n=%d, p%v) = %v, want %v", len(c.xs), c.p, got, c.want)
		}
	}
	if hundred[0] != 100 {
		t.Error("percentile sorted its input in place")
	}
}

// countingListener counts the connections the load generator opens.
type countingListener struct {
	net.Listener
	accepted *atomic.Int64
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.accepted.Add(1)
	}
	return c, err
}

// TestSmoke runs a tiny configuration of every workload, untraced and
// traced, and checks what the benchmark's consumers rely on: every metric
// of BENCHMARK.json with its unit, a verdict gate that ran and passed, a
// well-formed trace, and at most two generator connections per service.
func TestSmoke(t *testing.T) {
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	t.Setenv("TMPDIR", t.TempDir())
	start := time.Now()
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			var mu sync.Mutex
			var listeners []*atomic.Int64
			cfg := config{
				workload: w, seed: 3, window: 300 * time.Millisecond, setups: 1, instances: 1,
				traced: traced, traceOut: filepath.Join(t.TempDir(), "trace.jsonl"),
				wrap: func(ln net.Listener) net.Listener {
					n := new(atomic.Int64)
					mu.Lock()
					listeners = append(listeners, n)
					mu.Unlock()
					return countingListener{ln, n}
				},
			}
			res, text, err := bench(cfg)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w, traced, err)
			}
			if !res.Correct || res.Failed != 0 || !strings.Contains(text, "verdict gate: ran=true, 0 wrong") {
				t.Fatalf("%s traced=%v: verdict gate did not pass:\n%s", w, traced, text)
			}
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
				checkTrace(t, cfg.traceOut)
			}
			if len(want) == 0 || len(res.Metrics) != len(want) {
				t.Fatalf("%s traced=%v: %d metrics reported, BENCHMARK.json lists %d", w, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				if got, ok := res.Metrics[m.Name]; !ok || got.Unit != m.Unit || !strings.Contains(text, m.Name) {
					t.Errorf("%s traced=%v: metric %s [%s] not printed (got %+v)", w, traced, m.Name, m.Unit, got)
				}
			}
			// Two clients with one connection each: never more than the
			// two CPUs of the calibration host.
			for _, n := range listeners {
				if c := n.Load(); c > 2 {
					t.Errorf("%s traced=%v: the generator opened %d connections", w, traced, c)
				}
			}
			if isService(w) && len(listeners) == 0 {
				t.Errorf("%s: no service listener was counted", w)
			}
		}
	}
	t.Logf("all workloads in %v", time.Since(start).Round(time.Millisecond))
}

// checkTrace parses a traced run's JSONL: every span's parent exists and
// belongs to the same request, every request has exactly one root, and
// some requests hold several spans.
func checkTrace(t *testing.T, path string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	byID := map[int]span{}
	roots := map[string]int{}
	perReq := map[string]int{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("trace line %q: %v", sc.Text(), err)
		}
		if _, dup := byID[s.ID]; dup || s.Req == "" || s.End < s.Start {
			t.Fatalf("bad span %+v", s)
		}
		byID[s.ID] = s
		perReq[s.Req]++
		if s.Parent == 0 {
			roots[s.Req]++
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	shared := 0
	for _, s := range byID {
		if s.Parent != 0 {
			p, ok := byID[s.Parent]
			if !ok || p.Req != s.Req {
				t.Fatalf("span %+v: parent missing or in another request", s)
			}
		}
	}
	for req, n := range perReq {
		if roots[req] != 1 {
			t.Fatalf("request %s has %d roots", req, roots[req])
		}
		if n > 1 {
			shared++
		}
	}
	if shared == 0 {
		t.Fatal("no request id is shared by several spans")
	}
}
