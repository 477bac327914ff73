package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestErrorExitFlushesProfileAndTrace runs the binary on a spec file that
// does not exist: the run fails after profiling and tracing have started,
// so it must still exit 1 through its deferred cleanups — a non-empty CPU
// profile, and a trace whose last line is the ended root span.
func TestErrorExitFlushesProfileAndTrace(t *testing.T) {
	bin := buildAllocate(t)
	dir := t.TempDir()
	prof := filepath.Join(dir, "cpu.pprof")
	trace := filepath.Join(dir, "spans.jsonl")
	out, err := exec.Command(bin, "-cpuprofile", prof, "-trace", trace,
		filepath.Join(dir, "missing.json")).CombinedOutput()
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 1 {
		t.Fatalf("err=%v, want exit 1; output:\n%s", err, out)
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
	if last.Span != "allocate" || last.Parent != 0 {
		t.Errorf("last trace line %q does not end the root span", lines[len(lines)-1])
	}
}
