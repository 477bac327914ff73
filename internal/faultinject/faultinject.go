// Package faultinject is a minimal fault-injection harness for the solve
// pipeline. Production code marks interesting boundaries with Fire(site);
// tests install a hook with Set that may panic, cancel a context, sleep, or
// count — whatever the failure scenario under test requires.
//
// The harness is dormant by default: Fire is a single atomic load when no
// hook is installed, so the instrumented sites cost nothing in production.
// All functions are safe for concurrent use (the portfolio fires from two
// goroutines at once).
package faultinject

import (
	"sync"
	"sync/atomic"
)

// The instrumented sites. Keeping them in one place doubles as a registry
// of where the pipeline can be interrupted.
const (
	// SiteSatSolve fires at the entry of every sat.Solver.Solve call.
	SiteSatSolve = "sat.solve"
	// SiteSatRestart fires at every solver restart boundary.
	SiteSatRestart = "sat.restart"
	// SiteSatReduce fires at every learnt-clause-DB reduction.
	SiteSatReduce = "sat.reduce"
	// SiteSatParallelWorker fires on each portfolio worker's goroutine as
	// its race leg begins (before the worker's Solve call).
	SiteSatParallelWorker = "sat.parallel.worker"
	// SiteServeAdmit fires in the allocation daemon's admission path, after
	// the spec parsed but before the job is registered and enqueued.
	SiteServeAdmit = "serve.admit"
	// SiteServeWorker fires on a serve worker goroutine as it picks a job
	// up, before the solve pipeline is entered.
	SiteServeWorker = "serve.worker"
	// SiteServeJournal fires inside every job-journal append, before the
	// record is written to disk.
	SiteServeJournal = "serve.journal"
	// SiteServeCache fires on every result-cache access (lookup and store).
	SiteServeCache = "serve.cache"
)

var (
	enabled atomic.Bool
	//satlint:lock faultinject.hook
	mu   sync.Mutex
	hook func(site string)
)

// Set installs the hook and returns a restore function that removes it
// again (use with defer in tests). Installing a new hook replaces the
// previous one.
func Set(f func(site string)) (restore func()) {
	mu.Lock()
	hook = f
	mu.Unlock()
	enabled.Store(f != nil)
	return Clear
}

// Clear removes any installed hook.
func Clear() {
	mu.Lock()
	hook = nil
	mu.Unlock()
	enabled.Store(false)
}

// Fire invokes the installed hook, if any, with the site name. The hook
// runs on the caller's goroutine, so a panicking hook unwinds through the
// caller exactly like a genuine bug at that site would.
func Fire(site string) {
	if !enabled.Load() {
		return
	}
	mu.Lock()
	f := hook
	mu.Unlock()
	if f != nil {
		f(site)
	}
}

// PanicAt returns a hook that panics with the given value the n-th time
// (1-based) the named site fires, a common scenario in the fault-injection
// tests.
func PanicAt(site string, n int, value any) func(string) {
	var count atomic.Int64
	return func(s string) {
		if s != site {
			return
		}
		if count.Add(1) == int64(n) {
			panic(value)
		}
	}
}
