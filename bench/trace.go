package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed public call, as the harness saw it from outside. Spans
// of one solve or job share Req; Parent links a call to the one that
// caused it (0 marks a root). Times are milliseconds since the recorder
// was created.
type span struct {
	ID     int            `json:"id"`
	Parent int            `json:"parent,omitempty"`
	Req    string         `json:"req"`
	Name   string         `json:"name"`
	Start  float64        `json:"start_ms"`
	End    float64        `json:"end_ms"`
	Attrs  map[string]any `json:"attrs,omitempty"`
}

func (s span) dur() float64 { return s.End - s.Start }

// recorder keeps the spans of a traced run in memory and writes them out
// as JSONL when the run ends, so tracing does no I/O while timing. A nil
// *recorder records nothing: untraced runs pass nil and pay one nil check
// per call.
type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// add records a finished call and returns its span ID (0 on a nil
// recorder, which is also the "no parent" ID).
func (r *recorder) add(parent int, req, name string, start, end time.Time, attrs map[string]any) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{
		ID: id, Parent: parent, Req: req, Name: name,
		Start: ms(start.Sub(r.epoch)), End: ms(end.Sub(r.epoch)), Attrs: attrs,
	})
	return id
}

// snapshot returns a copy of the spans recorded so far.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// write stores the spans as JSONL at path, creating its directory.
func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.snapshot() {
		if err := enc.Encode(s); err != nil {
			return fmt.Errorf("trace: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}
