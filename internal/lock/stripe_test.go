package lock

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestStripeCountRounding pins the stripe-count contract: defaults,
// power-of-two rounding, and the single-stripe compatibility mode.
func TestStripeCountRounding(t *testing.T) {
	cases := []struct{ ask, want int }{
		{0, DefaultStripes}, {1, 1}, {2, 2}, {3, 4}, {5, 8}, {32, 32}, {33, 64},
	}
	for _, c := range cases {
		if got := NewManagerStriped(Detect, 0, c.ask).Stripes(); got != c.want {
			t.Errorf("NewManagerStriped(stripes=%d).Stripes() = %d, want %d", c.ask, got, c.want)
		}
	}
}

// TestAcquireReturnsWait pins down the wait contract: an uncontended
// or re-entrant request reports the zero Wait, and a blocked one reports
// its key's stripe, the holder it queued behind, and a positive
// duration, whether it was granted or failed.
func TestAcquireReturnsWait(t *testing.T) {
	m := NewManager(Detect, 0)
	m.Begin(1, 1)
	m.Begin(2, 2)
	for i := 0; i < 2; i++ { // fresh grant, then re-entrant no-op
		if w, err := m.Acquire(1, "k", Exclusive); err != nil || w.Blocked() || w != (Wait{}) {
			t.Fatalf("uncontended Acquire = %+v, %v; want zero Wait", w, err)
		}
	}
	type result struct {
		w   Wait
		err error
	}
	blocked := make(chan result, 1)
	go func() {
		w, err := m.Acquire(2, "k", Exclusive)
		blocked <- result{w, err}
	}()
	for m.Waits() == 0 {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(5 * time.Millisecond)
	m.ReleaseAll(1)
	r := <-blocked
	if r.err != nil {
		t.Fatal(r.err)
	}
	if !r.w.Blocked() || r.w.Stripe != m.StripeOf("k") || r.w.Blocker != 1 || r.w.Dur < 5*time.Millisecond {
		t.Fatalf("blocked Acquire = %+v; want stripe %d, blocker 1, >=5ms", r.w, m.StripeOf("k"))
	}
	m.ReleaseAll(2)

	// A timed-out request reports its wait too.
	tm := NewManager(TimeoutPolicy, 10*time.Millisecond)
	tm.Begin(1, 1)
	tm.Begin(2, 2)
	if err := acquire(tm, 1, "k", Exclusive); err != nil {
		t.Fatal(err)
	}
	w, err := tm.Acquire(2, "k", Exclusive)
	if !errors.Is(err, ErrTimeout) || !w.Blocked() || w.Blocker != 1 || w.Dur < 10*time.Millisecond {
		t.Fatalf("timed-out Acquire = %+v, %v; want ErrTimeout after >=10ms behind tx 1", w, err)
	}
}

// TestSlowBlockObserver gives the block observer the same guarantee.
func TestSlowBlockObserver(t *testing.T) {
	m := NewManager(Detect, 0)
	release := make(chan struct{})
	defer close(release)
	var fired atomic.Int32
	m.SetBlockObserver(func(txID uint64, key string) {
		fired.Add(1)
		<-release
	})

	m.Begin(1, 1)
	m.Begin(2, 2)
	if err := acquire(m, 1, "k", Exclusive); err != nil {
		t.Fatal(err)
	}
	blocked := make(chan error, 1)
	go func() { blocked <- acquire(m, 2, "k", Exclusive) }()
	for fired.Load() == 0 {
		time.Sleep(time.Millisecond)
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		m.Begin(3, 3)
		if err := acquire(m, 3, "elsewhere", Exclusive); err != nil {
			t.Errorf("Acquire: %v", err)
		}
		m.ReleaseAll(3)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("lock traffic stalled behind a slow block observer")
	}

	release <- struct{}{}
	m.ReleaseAll(1)
	if err := <-blocked; err != nil {
		t.Fatal(err)
	}
	m.ReleaseAll(2)
}

// TestStripedStress hammers the striped manager from many goroutines with
// a deliberately adversarial mix — every transaction touches one global
// hot key plus a handful of uniformly distributed keys — under all three
// deadlock policies. Run under -race (tier-1) this is the data-race net
// for the striped fast path, the cross-stripe release path, and the
// detector slow path at once. Mutual exclusion is checked with a counter
// guarded only by the hot key's exclusive lock.
func TestStripedStress(t *testing.T) {
	policies := map[string]Policy{"detect": Detect, "woundwait": WoundWait, "timeout": TimeoutPolicy}
	for name, policy := range policies {
		t.Run(name, func(t *testing.T) {
			m := NewManagerStriped(policy, 5*time.Millisecond, 8)
			const (
				workers = 8
				rounds  = 200
				keys    = 64
			)
			var inHot atomic.Int32
			var commits atomic.Int64
			var ids atomic.Uint64
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(seed int) {
					defer wg.Done()
					rng := uint64(seed)*2654435761 + 1
					for r := 0; r < rounds; r++ {
						id := ids.Add(1)
						m.Begin(id, id)
						ok := true
						// A few uniform keys first, then the hot key —
						// cross-stripe waits-for edges guaranteed.
						for i := 0; i < 3 && ok; i++ {
							rng = rng*6364136223846793005 + 1442695040888963407
							k := fmt.Sprintf("u%d", rng%keys)
							mode := Shared
							if rng&1 == 0 {
								mode = Exclusive
							}
							if err := acquire(m, id, k, mode); err != nil {
								ok = false
							}
						}
						if ok && acquire(m, id, "hot", Exclusive) == nil {
							if inHot.Add(1) != 1 {
								t.Error("mutual exclusion violated on hot key")
							}
							inHot.Add(-1)
							commits.Add(1)
						}
						m.ReleaseAll(id)
					}
				}(w)
			}
			wg.Wait()
			if commits.Load() == 0 {
				t.Fatal("no transaction ever acquired the hot key")
			}
			// The table must be empty: every key's lockState is deleted
			// once nothing holds or waits on it.
			for i := range m.stripes {
				s := &m.stripes[i]
				s.mu.Lock()
				if len(s.locks) != 0 {
					t.Errorf("stripe %d leaked %d lock states", i, len(s.locks))
				}
				s.mu.Unlock()
			}
		})
	}
}

// TestStripeCollisionsCounted checks the contention counter moves when
// two goroutines fight over one stripe and stays still when idle.
func TestStripeCollisionsCounted(t *testing.T) {
	m := NewManagerStriped(Detect, 0, 1) // one stripe: all keys collide
	if m.StripeCollisions() != 0 {
		t.Fatalf("fresh manager reports %d collisions", m.StripeCollisions())
	}
	var wg sync.WaitGroup
	var ids atomic.Uint64
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				id := ids.Add(1)
				m.Begin(id, id)
				k := fmt.Sprintf("k%d", id%16)
				if err := acquire(m, id, k, Shared); err == nil {
					m.ReleaseAll(id)
				} else {
					m.ReleaseAll(id)
				}
			}
		}()
	}
	wg.Wait()
	if m.StripeCollisions() == 0 {
		t.Skip("no collision observed (single-core scheduling); counter path covered elsewhere")
	}
}
