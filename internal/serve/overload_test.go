package serve

import (
	"errors"
	"sync"
	"testing"
	"time"
)

// TestOverloadSheds: with Workers=1 busy on a slow crack and MaxWaiting=2,
// a flood of submissions is mostly shed with ErrOverloaded — cheaply, not
// by stalling — while non-shed queries still complete correctly.
func TestOverloadSheds(t *testing.T) {
	g := &gatedEngine{delay: 50 * time.Millisecond}
	srv := New(g, Options{Workers: 1, MaxWaiting: 2})

	const flood = 32
	var wg sync.WaitGroup
	var mu sync.Mutex
	var shed, ok, other int
	for i := 0; i < flood; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _, err := srv.Do(slowQuery)
			mu.Lock()
			defer mu.Unlock()
			switch {
			case err == nil:
				ok++
			case errors.Is(err, ErrOverloaded):
				shed++
			default:
				other++
			}
		}()
	}
	wg.Wait()
	if other != 0 {
		t.Errorf("%d unexpected errors", other)
	}
	if shed == 0 {
		t.Errorf("flood of %d at MaxWaiting=2 shed nothing", flood)
	}
	if ok == 0 {
		t.Error("everything was shed; watermark must admit work")
	}
	st := srv.Stats()
	if st.Sheds != shed {
		t.Errorf("Stats.Sheds=%d, want %d", st.Sheds, shed)
	}
	if st.Errors != 0 {
		t.Errorf("sheds leaked into Errors (%d)", st.Errors)
	}
	// The server is healthy after the storm: a lone query succeeds.
	if _, _, err := srv.Do(slowQuery); err != nil {
		t.Errorf("post-storm query failed: %v", err)
	}
	srv.Close()
}

// TestDoUntilExpiredSkipsExecution: a DoUntil whose deadline has already
// passed returns ErrTimeout without ever reaching the engine — the
// server-side half of the wire TTL hint.
func TestDoUntilExpiredSkipsExecution(t *testing.T) {
	g := &gatedEngine{}
	srv := New(g, Options{Workers: 1})
	before := g.calls.Load()
	_, _, err := srv.DoUntilSpans(slowQuery, time.Now().Add(-time.Second), nil)
	if !errors.Is(err, ErrTimeout) {
		t.Errorf("want ErrTimeout for expired deadline, got %v", err)
	}
	if g.calls.Load() != before {
		t.Error("expired request reached the engine")
	}
	if st := srv.Stats(); st.Errors != 1 {
		t.Errorf("expired request not counted: Errors=%d", st.Errors)
	}
	srv.Close()
}

// TestDoUntilNoSlotLeak is the regression test for the TTL satellite: a
// burst of requests that all expire while one slow query holds the only
// worker slot must not leak slots — afterwards the full worker capacity is
// still available and fresh queries run.
func TestDoUntilNoSlotLeak(t *testing.T) {
	g := &gatedEngine{delay: 150 * time.Millisecond}
	srv := New(g, Options{Workers: 1})

	// Occupy the worker.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		srv.Do(slowQuery)
	}()
	time.Sleep(20 * time.Millisecond)

	// 16 requests whose deadlines expire while the worker is busy.
	var expired sync.WaitGroup
	for i := 0; i < 16; i++ {
		expired.Add(1)
		go func() {
			defer expired.Done()
			_, _, err := srv.DoUntilSpans(slowQuery, time.Now().Add(30*time.Millisecond), nil)
			if !errors.Is(err, ErrTimeout) {
				t.Errorf("want ErrTimeout, got %v", err)
			}
		}()
	}
	expired.Wait()
	wg.Wait()

	// All slots must be back: a query with plenty of deadline runs fine.
	g.delay = 0
	if _, _, err := srv.DoUntilSpans(slowQuery, time.Now().Add(5*time.Second), nil); err != nil {
		t.Errorf("slot leaked — post-expiry query failed: %v", err)
	}
	srv.Close()
}
