package faultinject

import (
	"sync"
	"testing"
)

func TestFireWithoutHookIsNoop(t *testing.T) {
	Clear()
	Fire(SiteSatSolve) // must not panic or block
}

func TestSetFireClear(t *testing.T) {
	var got []string
	restore := Set(func(site string) { got = append(got, site) })
	Fire(SiteSatRestart)
	Fire(SiteSatReduce)
	restore()
	Fire(SiteSatSolve) // after restore: ignored
	if len(got) != 2 || got[0] != SiteSatRestart || got[1] != SiteSatReduce {
		t.Fatalf("hook saw %v", got)
	}
}

func TestPanicAtCountsPerSite(t *testing.T) {
	defer Set(PanicAt(SiteSatRestart, 2, "boom"))()
	Fire(SiteSatSolve)   // other site: ignored
	Fire(SiteSatRestart) // first firing: no panic
	panicked := func() (p any) {
		defer func() { p = recover() }()
		Fire(SiteSatRestart)
		return nil
	}()
	if panicked != "boom" {
		t.Fatalf("expected panic on second firing, got %v", panicked)
	}
}

func TestConcurrentFire(t *testing.T) {
	var mu sync.Mutex
	n := 0
	defer Set(func(string) { mu.Lock(); n++; mu.Unlock() })()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				Fire(SiteSatSolve)
			}
		}()
	}
	wg.Wait()
	if n != 800 {
		t.Fatalf("hook fired %d times, want 800", n)
	}
}
