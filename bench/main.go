// Command bench is satalloc's end-to-end benchmark. It drives the system
// only through public entry points: batch solves through
// core.SolveContext, configured as cmd/allocate configures it, and job
// load through an in-process serve.Server with cmd/allocd's flag defaults
// on a loopback listener. Every verdict is checked after the timed window.
//
//	bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// run.sh builds this package and runs it from the repository root. With
// --trace 0 the last line of standard output is a JSON object with the
// end-to-end metrics; with --trace 1 the same workload and seed run again
// under the harness's span recorder, the spans go to a JSONL file, and the
// JSON object carries the per-layer metrics. The exit code is non-zero on
// any wrong verdict. bench/README.md defines the workloads and metrics;
// -record rewrites bench/expected.json.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// setups is how often a run sets up; setup_s is the median.
const setups = 7

// config is one benchmark run.
type config struct {
	workload string
	seed     int64
	window   time.Duration
	traced   bool
	traceOut string
	// setups overrides the set-up count (the smoke test uses 1).
	setups int
	// instances, when positive, keeps only that many instances of a batch
	// workload; the smoke test uses it to stay within seconds.
	instances int
	// wrap, when set, wraps the service listener (the smoke test counts
	// the generator's connections with it).
	wrap func(net.Listener) net.Listener
}

// metric is one reported number in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the run's last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report collects a run's metrics, the sample count behind each
// percentile, and free-form lines for the human-readable summary.
type report struct {
	values map[string]float64
	counts map[string]int
	notes  []string
}

func newReport() *report {
	return &report{values: map[string]float64{}, counts: map[string]int{}}
}

func (r *report) set(name string, v float64, n int) {
	r.values[name] = v
	if n > 0 {
		r.counts[name] = n
	}
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// outcome is what a workload run hands back besides its metrics.
type outcome struct {
	attempted, failed int
	wrong             []string // wrong verdicts, one line each
	gateRan           bool
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: paper-tables, unsat-frontier or service-steady")
	seed := fs.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 35, "length of the timed window in seconds")
	traced := fs.Int("trace", 0, "1: traced run reporting per-layer metrics; 0: end-to-end metrics")
	traceOut := fs.String("trace-out", "", "JSONL span file of a traced run (default .bench_build/trace-<workload>-<seed>.jsonl)")
	record := fs.String("record", "", "solve every batch instance with proof checking, write the verdicts to this file and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *traced != 0 && *traced != 1 {
		fmt.Fprintln(stderr, "bench: -trace must be 0 or 1")
		return 2
	}
	if *record != "" {
		if err := recordExpected(*record, stderr); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
		return 0
	}
	cfg := config{
		workload: *name, seed: *seed, traced: *traced == 1, traceOut: *traceOut,
		window: time.Duration(*seconds * float64(time.Second)), setups: setups,
	}
	if cfg.traceOut == "" {
		cfg.traceOut = filepath.Join(".bench_build", fmt.Sprintf("trace-%s-%d.jsonl", cfg.workload, cfg.seed))
	}
	res, text, err := bench(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Fprint(stdout, text)
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// bench runs one workload and returns its result line and the
// human-readable summary printed above it.
func bench(cfg config) (*result, string, error) {
	known := false
	for _, w := range workloads {
		known = known || w == cfg.workload
	}
	switch {
	case !known:
		return nil, "", fmt.Errorf("unknown workload %q (want one of %v)", cfg.workload, workloads)
	case cfg.window <= 0 || cfg.setups < 1:
		return nil, "", errors.New("-seconds must be positive")
	}
	var rec *recorder
	if cfg.traced {
		rec = newRecorder()
	}
	rep := newReport()
	var out *outcome
	var err error
	if isService(cfg.workload) {
		out, err = runService(cfg, rec, rep)
	} else {
		out, err = runBatch(cfg, rec, rep)
	}
	if err != nil {
		return nil, "", err
	}
	if rec != nil {
		layerMetrics(rec.snapshot(), rep)
		if err := rec.write(cfg.traceOut); err != nil {
			return nil, "", fmt.Errorf("writing trace: %w", err)
		}
		rep.note("trace: %d spans in %s", len(rec.snapshot()), cfg.traceOut)
	}
	return finish(cfg, out, rep)
}

// finish checks that the run produced every metric its mode reports and
// renders the result line and the summary.
func finish(cfg config, out *outcome, rep *report) (*result, string, error) {
	list := endToEnd
	if cfg.traced {
		list = perLayer
	}
	res := &result{
		Correct:   out.gateRan && len(out.wrong) == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   map[string]metric{},
	}
	if res.Attempted < 1 {
		return nil, "", errors.New("no operation was attempted")
	}
	var b []byte
	b = fmt.Appendf(b, "workload %s, seed %d, window %v, GOMAXPROCS %d, NumCPU %d, %s\n",
		cfg.workload, cfg.seed, cfg.window, runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version())
	for _, m := range list {
		v, ok := rep.values[m.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, "", fmt.Errorf("metric %s was not measured", m.name)
		}
		res.Metrics[m.name] = metric{Value: v, Unit: m.unit}
		b = fmt.Appendf(b, "  %-28s %14.4f %-10s", m.name, v, m.unit)
		if n, ok := rep.counts[m.name]; ok {
			b = fmt.Appendf(b, " (n=%d)", n)
		}
		b = append(b, '\n')
	}
	// Numbers measured beside the reported set (a traced run's end-to-end
	// values, the generator's lag) go below it, in parentheses.
	var extra []string
	for name := range rep.values {
		if _, ok := res.Metrics[name]; !ok {
			extra = append(extra, name)
		}
	}
	sort.Strings(extra)
	for _, name := range extra {
		b = fmt.Appendf(b, "  (%s %.4f", name, rep.values[name])
		if n, ok := rep.counts[name]; ok {
			b = fmt.Appendf(b, ", n=%d", n)
		}
		b = append(b, ")\n"...)
	}
	for _, n := range rep.notes {
		b = fmt.Appendf(b, "  %s\n", n)
	}
	b = fmt.Appendf(b, "verdict gate: ran=%v, %d wrong; attempted %d, failed %d\n",
		out.gateRan, len(out.wrong), out.attempted, out.failed)
	for _, w := range out.wrong {
		b = fmt.Appendf(b, "  WRONG %s\n", w)
	}
	return res, string(b), nil
}
