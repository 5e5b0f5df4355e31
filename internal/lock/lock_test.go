package lock

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func newDetect() *Manager { return NewManager(Detect, 0) }

// acquire is Acquire for tests that check only the verdict.
func acquire(m *Manager, txID uint64, key string, mode Mode) error {
	_, err := m.Acquire(txID, key, mode)
	return err
}

func TestSharedLocksCoexist(t *testing.T) {
	m := newDetect()
	m.Begin(1, 1)
	m.Begin(2, 2)
	if err := acquire(m, 1, "x", Shared); err != nil {
		t.Fatal(err)
	}
	if err := acquire(m, 2, "x", Shared); err != nil {
		t.Fatal(err)
	}
	if got := m.HeldCount(1); got != 1 {
		t.Fatalf("held(1) = %d", got)
	}
}

func TestExclusiveBlocksShared(t *testing.T) {
	m := newDetect()
	m.Begin(1, 1)
	m.Begin(2, 2)
	if err := acquire(m, 1, "x", Exclusive); err != nil {
		t.Fatal(err)
	}
	done := make(chan error)
	go func() { done <- acquire(m, 2, "x", Shared) }()
	select {
	case err := <-done:
		t.Fatalf("shared acquired despite X holder: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	m.ReleaseAll(1)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestReacquireIsNoop(t *testing.T) {
	m := newDetect()
	m.Begin(1, 1)
	for i := 0; i < 3; i++ {
		if err := acquire(m, 1, "x", Shared); err != nil {
			t.Fatal(err)
		}
	}
	if err := acquire(m, 1, "x", Exclusive); err != nil {
		t.Fatal(err)
	}
	// X then S: still a no-op, keeps X.
	if err := acquire(m, 1, "x", Shared); err != nil {
		t.Fatal(err)
	}
	if got := m.HeldCount(1); got != 1 {
		t.Fatalf("held = %d, want 1", got)
	}
}

func TestUpgradeSoleHolder(t *testing.T) {
	m := newDetect()
	m.Begin(1, 1)
	if err := acquire(m, 1, "x", Shared); err != nil {
		t.Fatal(err)
	}
	if err := acquire(m, 1, "x", Exclusive); err != nil {
		t.Fatal(err)
	}
}

func TestUpgradeWaitsForOtherReaders(t *testing.T) {
	m := newDetect()
	m.Begin(1, 1)
	m.Begin(2, 2)
	if err := acquire(m, 1, "x", Shared); err != nil {
		t.Fatal(err)
	}
	if err := acquire(m, 2, "x", Shared); err != nil {
		t.Fatal(err)
	}
	done := make(chan error)
	go func() { done <- acquire(m, 1, "x", Exclusive) }()
	select {
	case err := <-done:
		t.Fatalf("upgrade granted with another reader: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	m.ReleaseAll(2)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestUpgradePriorityOverQueuedWriter(t *testing.T) {
	m := newDetect()
	m.Begin(1, 1)
	m.Begin(2, 2)
	m.Begin(3, 3)
	if err := acquire(m, 1, "x", Shared); err != nil {
		t.Fatal(err)
	}
	if err := acquire(m, 2, "x", Shared); err != nil {
		t.Fatal(err)
	}
	// T3 queues for X.
	t3 := make(chan error)
	go func() { t3 <- acquire(m, 3, "x", Exclusive) }()
	time.Sleep(10 * time.Millisecond)
	// T1 requests upgrade: must be served before T3 once T2 releases.
	t1 := make(chan error)
	go func() { t1 <- acquire(m, 1, "x", Exclusive) }()
	time.Sleep(10 * time.Millisecond)
	m.ReleaseAll(2)
	select {
	case err := <-t1:
		if err != nil {
			t.Fatal(err)
		}
	case err := <-t3:
		t.Fatalf("queued writer served before upgrade: %v", err)
	case <-time.After(2 * time.Second):
		t.Fatal("nobody granted")
	}
	m.ReleaseAll(1)
	if err := <-t3; err != nil {
		t.Fatal(err)
	}
}

func TestDeadlockDetection(t *testing.T) {
	m := newDetect()
	m.Begin(1, 1)
	m.Begin(2, 2)
	if err := acquire(m, 1, "a", Exclusive); err != nil {
		t.Fatal(err)
	}
	if err := acquire(m, 2, "b", Exclusive); err != nil {
		t.Fatal(err)
	}
	t1 := make(chan error)
	go func() { t1 <- acquire(m, 1, "b", Exclusive) }()
	time.Sleep(20 * time.Millisecond)
	// Closing the cycle: T2 must be chosen as victim immediately.
	err := acquire(m, 2, "a", Exclusive)
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("err = %v, want ErrDeadlock", err)
	}
	m.ReleaseAll(2)
	if err := <-t1; err != nil {
		t.Fatal(err)
	}
	if m.Deadlocks() != 1 {
		t.Fatalf("Deadlocks = %d", m.Deadlocks())
	}
}

func TestUpgradeUpgradeDeadlock(t *testing.T) {
	m := newDetect()
	m.Begin(1, 1)
	m.Begin(2, 2)
	if err := acquire(m, 1, "x", Shared); err != nil {
		t.Fatal(err)
	}
	if err := acquire(m, 2, "x", Shared); err != nil {
		t.Fatal(err)
	}
	t1 := make(chan error)
	go func() { t1 <- acquire(m, 1, "x", Exclusive) }()
	time.Sleep(20 * time.Millisecond)
	err := acquire(m, 2, "x", Exclusive)
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("err = %v, want ErrDeadlock", err)
	}
	m.ReleaseAll(2)
	if err := <-t1; err != nil {
		t.Fatal(err)
	}
}

func TestWoundWaitOlderWoundsYoungerHolder(t *testing.T) {
	m := NewManager(WoundWait, 0)
	m.Begin(1, 1) // older
	m.Begin(2, 2) // younger
	if err := acquire(m, 2, "x", Exclusive); err != nil {
		t.Fatal(err)
	}
	t1 := make(chan error)
	go func() { t1 <- acquire(m, 1, "x", Exclusive) }()
	time.Sleep(20 * time.Millisecond)
	if key, wounded := m.Wounded(2); !wounded || key != "x" {
		t.Fatalf("Wounded(2) = %q, %v; want the contested key x", key, wounded)
	}
	// The wounded transaction notices on its next acquire.
	if err := acquire(m, 2, "y", Shared); !errors.Is(err, ErrWounded) {
		t.Fatalf("err = %v, want ErrWounded", err)
	}
	m.ReleaseAll(2)
	if err := <-t1; err != nil {
		t.Fatal(err)
	}
	if m.Wounds() != 1 {
		t.Fatalf("Wounds = %d", m.Wounds())
	}
}

func TestWoundWaitYoungerWaits(t *testing.T) {
	m := NewManager(WoundWait, 0)
	m.Begin(1, 1)
	m.Begin(2, 2)
	if err := acquire(m, 1, "x", Exclusive); err != nil {
		t.Fatal(err)
	}
	t2 := make(chan error)
	go func() { t2 <- acquire(m, 2, "x", Exclusive) }()
	select {
	case err := <-t2:
		t.Fatalf("younger did not wait: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	if _, wounded := m.Wounded(1); wounded {
		t.Fatal("older got wounded by younger")
	}
	m.ReleaseAll(1)
	if err := <-t2; err != nil {
		t.Fatal(err)
	}
}

func TestWoundWaitWoundsBlockedWaiterImmediately(t *testing.T) {
	m := NewManager(WoundWait, 0)
	m.Begin(1, 1) // oldest
	m.Begin(2, 2)
	m.Begin(3, 3)
	if err := acquire(m, 2, "x", Exclusive); err != nil {
		t.Fatal(err)
	}
	t3 := make(chan error)
	go func() { t3 <- acquire(m, 3, "x", Exclusive) }()
	time.Sleep(20 * time.Millisecond)
	// T1 arrives: wounds holder T2 and queued T3.
	t1 := make(chan error)
	go func() { t1 <- acquire(m, 1, "x", Exclusive) }()
	if err := <-t3; !errors.Is(err, ErrWounded) {
		t.Fatalf("t3 err = %v, want ErrWounded", err)
	}
	m.ReleaseAll(3)
	m.ReleaseAll(2)
	if err := <-t1; err != nil {
		t.Fatal(err)
	}
}

func TestTimeoutPolicy(t *testing.T) {
	m := NewManager(TimeoutPolicy, 30*time.Millisecond)
	m.Begin(1, 1)
	m.Begin(2, 2)
	if err := acquire(m, 1, "x", Exclusive); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	err := acquire(m, 2, "x", Shared)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	if d := time.Since(start); d < 25*time.Millisecond {
		t.Fatalf("timed out too early: %v", d)
	}
	if m.Timeouts() != 1 {
		t.Fatalf("Timeouts = %d", m.Timeouts())
	}
	// The lock remains usable.
	m.ReleaseAll(1)
	m.Begin(3, 3)
	if err := acquire(m, 3, "x", Exclusive); err != nil {
		t.Fatal(err)
	}
}

func TestFIFOFairnessWriterNotStarved(t *testing.T) {
	m := newDetect()
	m.Begin(1, 1)
	if err := acquire(m, 1, "x", Shared); err != nil {
		t.Fatal(err)
	}
	m.Begin(2, 2)
	writer := make(chan error)
	go func() { writer <- acquire(m, 2, "x", Exclusive) }()
	time.Sleep(10 * time.Millisecond)
	// A later reader must queue behind the writer, not jump it.
	m.Begin(3, 3)
	reader := make(chan error)
	go func() { reader <- acquire(m, 3, "x", Shared) }()
	select {
	case <-reader:
		t.Fatal("late reader jumped the queued writer")
	case <-time.After(20 * time.Millisecond):
	}
	m.ReleaseAll(1)
	if err := <-writer; err != nil {
		t.Fatal(err)
	}
	m.ReleaseAll(2)
	if err := <-reader; err != nil {
		t.Fatal(err)
	}
}

func TestAcquireUnknownTx(t *testing.T) {
	m := newDetect()
	if err := acquire(m, 99, "x", Shared); !errors.Is(err, ErrUnknown) {
		t.Fatalf("err = %v, want ErrUnknown", err)
	}
}

func TestReleaseAllUnknownIsNoop(t *testing.T) {
	m := newDetect()
	m.ReleaseAll(42)
}

// Stress: random transactions acquire random locks under each policy;
// mutual exclusion is asserted via a per-key owner check, and the run must
// terminate (no undetected deadlock).
func TestStressMutualExclusion(t *testing.T) {
	for _, pol := range []Policy{Detect, WoundWait, TimeoutPolicy} {
		pol := pol
		t.Run(fmt.Sprintf("policy=%d", pol), func(t *testing.T) {
			t.Parallel()
			m := NewManager(pol, 20*time.Millisecond)
			const keys = 8
			const workers = 8
			const txPerWorker = 150

			var owners [keys]atomic.Int64
			var ages atomic.Uint64
			var ids atomic.Uint64

			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(w)))
					for i := 0; i < txPerWorker; i++ {
						id := ids.Add(1)
						m.Begin(id, ages.Add(1))
						locked := make(map[int]Mode)
						aborted := false
						n := 1 + rng.Intn(4)
						for j := 0; j < n; j++ {
							k := rng.Intn(keys)
							mode := Shared
							if rng.Intn(2) == 0 {
								mode = Exclusive
							}
							if err := acquire(m, id, fmt.Sprintf("k%d", k), mode); err != nil {
								aborted = true
								break
							}
							if prev, ok := locked[k]; !ok || (prev == Shared && mode == Exclusive) {
								locked[k] = mode
							}
							if locked[k] == Exclusive {
								if !owners[k].CompareAndSwap(0, int64(id)) && owners[k].Load() != int64(id) {
									panic("exclusive lock not exclusive")
								}
							}
						}
						for k, mode := range locked {
							if mode == Exclusive && owners[k].Load() == int64(id) {
								owners[k].Store(0)
							}
						}
						m.ReleaseAll(id)
						_ = aborted
					}
				}(w)
			}
			done := make(chan struct{})
			go func() { wg.Wait(); close(done) }()
			select {
			case <-done:
			case <-time.After(30 * time.Second):
				t.Fatal("stress run did not terminate (possible undetected deadlock)")
			}
		})
	}
}

func TestWoundedUnknownTx(t *testing.T) {
	m := newDetect()
	if _, wounded := m.Wounded(123); wounded {
		t.Fatal("unknown tx reported wounded")
	}
	if m.HeldCount(123) != 0 {
		t.Fatal("unknown tx holds locks")
	}
}

func TestDuplicateBeginPanics(t *testing.T) {
	m := newDetect()
	m.Begin(1, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m.Begin(1, 2)
}

// Three-transaction deadlock cycle: detection must still fire.
func TestThreeWayDeadlock(t *testing.T) {
	m := newDetect()
	for id := uint64(1); id <= 3; id++ {
		m.Begin(id, id)
	}
	keys := []string{"a", "b", "c"}
	for i, id := range []uint64{1, 2, 3} {
		if err := acquire(m, id, keys[i], Exclusive); err != nil {
			t.Fatal(err)
		}
	}
	errs := make(chan error, 2)
	go func() { errs <- acquire(m, 1, "b", Exclusive) }()
	time.Sleep(10 * time.Millisecond)
	go func() { errs <- acquire(m, 2, "c", Exclusive) }()
	time.Sleep(10 * time.Millisecond)
	// T3 -> a closes the 3-cycle; T3 must be the victim.
	if err := acquire(m, 3, "a", Exclusive); !errors.Is(err, ErrDeadlock) {
		t.Fatalf("err = %v, want ErrDeadlock", err)
	}
	m.ReleaseAll(3)
	// T3's release frees "c": T2's wait resolves first.
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
	// T2 releasing frees "b": T1's wait resolves.
	m.ReleaseAll(2)
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
	m.ReleaseAll(1)
}
