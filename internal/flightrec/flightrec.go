// Package flightrec is the solve pipeline's flight recorder: a
// fixed-size ring buffer of recent solver events (restarts, learnt-DB
// reductions, binary-search iterations, incumbents, budget hits, panics)
// kept in memory at all times and dumped on demand — into the diagnostics
// repro bundle when a panic is contained, or over the ops HTTP endpoint
// (/debug/flightrec) while a solve is running.
//
// Events are low-frequency by construction (they mirror the boundaries
// that already fire sat.Solver.OnProgress and the optimizer's iteration
// loop), so a mutex-guarded ring is cheap. A nil *Recorder is a valid
// disabled recorder: Record is then a single nil check.
package flightrec

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"
)

// DefaultCapacity is the ring size used when callers don't choose one —
// enough to hold the full event history of mid-size solves and the recent
// tail of long ones.
const DefaultCapacity = 512

// Event is one recorded occurrence.
type Event struct {
	// Seq numbers events from 1 in recording order; gaps never occur, so
	// Seq of the first retained event minus one is the dropped count.
	Seq int64 `json:"seq"`
	// AtUS is microseconds since the recorder was created.
	AtUS int64 `json:"at_us"`
	// Kind names the event source, dot-scoped by layer: "sat.solve",
	// "sat.restart", "sat.reduce", "sat.done", "sat.worker", "opt.iter",
	// "opt.bounds", "opt.incumbent", "opt.budget", "opt.warmstart",
	// "core.solve.start", "core.solve.end", "core.panic", "core.explain",
	// "proof.check".
	Kind string `json:"kind"`
	// Detail is a human-readable "k=v ..." line with the event payload.
	Detail string `json:"detail,omitempty"`
}

// Recorder is the ring buffer. Safe for concurrent use.
//
//satlint:nilsafe
type Recorder struct {
	//satlint:lock flightrec.ring
	mu    sync.Mutex
	epoch time.Time
	buf   []Event // ring storage, len == capacity once full
	cap   int
	next  int64 // total events ever recorded
}

// New returns a recorder holding the most recent capacity events
// (capacity <= 0 selects DefaultCapacity).
func New(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Recorder{epoch: time.Now(), cap: capacity}
}

// Record appends an event; the oldest event is dropped once the ring is
// full. The detail is formatted fmt.Sprintf-style. No-op on nil.
func (r *Recorder) Record(kind, format string, args ...any) {
	if r == nil {
		return
	}
	detail := format
	if len(args) > 0 {
		detail = fmt.Sprintf(format, args...)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.next++
	e := Event{
		Seq:    r.next,
		AtUS:   time.Since(r.epoch).Microseconds(),
		Kind:   kind,
		Detail: detail,
	}
	if len(r.buf) < r.cap {
		r.buf = append(r.buf, e)
		return
	}
	r.buf[(r.next-1)%int64(r.cap)] = e
}

// Snapshot returns the retained events in recording order. Nil recorders
// and empty rings return nil.
func (r *Recorder) Snapshot() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.buf) < r.cap {
		return append([]Event(nil), r.buf...)
	}
	// Full ring: the oldest event sits right after the newest one.
	start := r.next % int64(r.cap)
	out := make([]Event, 0, r.cap)
	out = append(out, r.buf[start:]...)
	out = append(out, r.buf[:start]...)
	return out
}

// Dump is the JSON wire format of a recorder snapshot.
type Dump struct {
	Capacity int     `json:"capacity"`
	Total    int64   `json:"total"`
	Dropped  int64   `json:"dropped"`
	Events   []Event `json:"events"`
}

// WriteJSON writes the recorder's state as one indented JSON object. A
// nil recorder writes an empty dump, so callers can serve the endpoint
// unconditionally.
func (r *Recorder) WriteJSON(w io.Writer) error {
	if r == nil {
		return writeDump(w, Dump{})
	}
	d := Dump{Events: r.Snapshot()}
	r.mu.Lock()
	d.Capacity = r.cap
	d.Total = r.next
	r.mu.Unlock()
	d.Dropped = d.Total - int64(len(d.Events))
	return writeDump(w, d)
}

func writeDump(w io.Writer, d Dump) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(d)
}
