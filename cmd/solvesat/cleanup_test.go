package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestErrorExitFlushesProfileAndTrace: an input file that does not exist
// fails the run after profiling and tracing have started; the exit is 1
// and the deferred cleanups still write the CPU profile and end the root
// span in the trace.
func TestErrorExitFlushesProfileAndTrace(t *testing.T) {
	bin := buildSolvesat(t)
	dir := t.TempDir()
	prof := filepath.Join(dir, "cpu.pprof")
	trace := filepath.Join(dir, "spans.jsonl")
	code, out := exitCode(t, exec.Command(bin, "-cpuprofile", prof, "-trace", trace,
		filepath.Join(dir, "missing.cnf")))
	if code != 1 {
		t.Fatalf("exit %d, want 1; output:\n%s", code, out)
	}
	if fi, err := os.Stat(prof); err != nil || fi.Size() == 0 {
		t.Errorf("CPU profile %s missing or empty (err=%v)", prof, err)
	}
	data, err := os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	var last struct {
		Span   string `json:"span"`
		Parent int    `json:"parent"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("trace %q: %v", data, err)
	}
	if last.Span != "solvesat" || last.Parent != 0 {
		t.Errorf("last trace line %q does not end the root span", lines[len(lines)-1])
	}
}
