package epoch

import (
	"sync"
	"testing"

	"mvdb/internal/vc"
)

// TestPublishEveryLiveness: the final completion publishes the full
// watermark (no stranded visibility), sequentially and under
// concurrency.
func TestPublishEveryLiveness(t *testing.T) {
	c := New(0)
	const n = 100
	handles := make([]vc.Handle, n)
	for i := range handles {
		handles[i] = c.Register()
	}
	for _, h := range handles {
		c.Complete(h)
	}
	if got, want := c.VTNC(), c.TNC()-1; got != want {
		t.Fatalf("after full drain VTNC = %d, want %d", got, want)
	}

	// Concurrent drain: two goroutines race the final completions.
	c2 := New(0)
	hs := make([]vc.Handle, 64)
	for i := range hs {
		hs[i] = c2.Register()
	}
	var wg sync.WaitGroup
	for half := 0; half < 2; half++ {
		wg.Add(1)
		go func(off int) {
			defer wg.Done()
			for i := off; i < len(hs); i += 2 {
				c2.Complete(hs[i])
			}
		}(half)
	}
	wg.Wait()
	if got, want := c2.VTNC(), c2.TNC()-1; got != want {
		t.Fatalf("concurrent drain VTNC = %d, want %d", got, want)
	}
}

// TestPublishEveryWaiters: a WaitVisible waiter is woken by the
// completion it waits for, even mid-stream.
func TestPublishEveryWaiters(t *testing.T) {
	c := New(0)
	h1 := c.Register()
	h2 := c.Register()
	done := make(chan struct{})
	go func() {
		c.WaitVisible(h1.TN())
		close(done)
	}()
	c.Complete(h1)
	<-done // must not hang: the publish that covers h1 wakes the waiter
	c.Complete(h2)
	if got, want := c.VTNC(), c.TNC()-1; got != want {
		t.Fatalf("VTNC = %d, want %d", got, want)
	}
}

// TestLaneFrontiers: the stalled lane is the one with the minimum
// frontier.
func TestLaneFrontiers(t *testing.T) {
	c := NewWithShape(0, 4, 16)
	hs := make([]vc.Handle, 8)
	for i := range hs {
		hs[i] = c.Register()
	}
	// Complete everything except tn=3: its lane's frontier stays behind.
	var heldLane int
	for _, h := range hs {
		if h.TN() == 3 {
			heldLane = int(h.TN() & 3)
			continue
		}
		c.Complete(h)
	}
	fr := c.LaneFrontiers()
	if len(fr) != 4 {
		t.Fatalf("frontiers = %v, want 4 lanes", fr)
	}
	minLane := 0
	for i, f := range fr {
		if f < fr[minLane] {
			minLane = i
		}
	}
	if minLane != heldLane {
		t.Fatalf("min-frontier lane = %d, want %d (frontiers %v)", minLane, heldLane, fr)
	}
}
