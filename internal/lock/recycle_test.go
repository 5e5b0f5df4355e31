package lock

import (
	"errors"
	"fmt"
	"testing"
)

// TestUncontendedAcquireAllocFree pins the recycled fast path: once the
// free lists are warm, a transaction that begins, takes Shared then
// Exclusive on four keys, and releases them allocates nothing.
func TestUncontendedAcquireAllocFree(t *testing.T) {
	m := NewManager(Detect, 0)
	keys := []string{"k0", "k1", "k2", "k3"}
	var id uint64
	run := func() {
		id++
		m.Begin(id, id)
		for _, k := range keys {
			for _, mode := range []Mode{Shared, Exclusive} {
				if err := acquire(m, id, k, mode); err != nil {
					t.Fatal(err)
				}
			}
		}
		m.ReleaseAll(id)
	}
	for i := 0; i < txShardCount; i++ { // one state per registry shard
		run()
	}
	if got := testing.AllocsPerRun(200, run); got != 0 {
		t.Errorf("Begin + 4×(S→X) + ReleaseAll = %.1f allocs, want 0", got)
	}
}

// TestRecycledStateNotWoundedOrWalked captures a blocker reference to
// transaction A, releases A, and begins B so that B reuses A's state
// (same registry shard, LIFO free list). The stale reference must then
// be inert: wounding it leaves B alone, a walk step from it finds none
// of B's edges, and WaitGraph reports B under B's id only.
func TestRecycledStateNotWoundedOrWalked(t *testing.T) {
	m := NewManager(Detect, 0)
	const a, b, c = 1, 1 + txShardCount, 2
	m.Begin(a, 10)
	if err := acquire(m, a, "x", Exclusive); err != nil {
		t.Fatal(err)
	}
	m.detectMu.Lock()
	stale := m.blockersFor(&request{key: "x", mode: Exclusive})
	m.detectMu.Unlock()
	if len(stale) != 1 || stale[0].id != a {
		t.Fatalf("blockers of x = %v, want A", stale)
	}
	m.ReleaseAll(a)

	m.Begin(b, 20)
	if m.txs[b%txShardCount].m[b] != stale[0].tx {
		t.Fatal("B did not reuse A's released state")
	}
	// B blocks on y behind C, so the reused state has a live edge B→C.
	m.Begin(c, 5)
	if err := acquire(m, c, "y", Exclusive); err != nil {
		t.Fatal(err)
	}
	blocked := make(chan struct{})
	m.SetBlockObserver(func(uint64, string) { close(blocked) })
	done := make(chan error, 1)
	go func() { done <- acquire(m, b, "y", Exclusive) }()
	<-blocked

	m.detectMu.Lock()
	m.wound(stale[0], 0, "x")
	staleEdges := m.edgesFrom(stale[0])
	staleCycle := m.cycleFrom(stale[0])
	liveEdges := m.edgesFrom(blocker{stale[0].tx, b})
	m.detectMu.Unlock()
	if _, wounded := m.Wounded(b); wounded {
		t.Error("wounding the stale reference to A wounded B")
	}
	if len(staleEdges) != 0 || staleCycle {
		t.Errorf("walk from the stale reference followed B's edges: %v (cycle %v)", staleEdges, staleCycle)
	}
	if len(liveEdges) != 1 || liveEdges[0].id != c {
		t.Errorf("edges of B = %v, want B→C (test setup)", liveEdges)
	}
	g := m.WaitGraph()
	if want := (WaitEdge{From: b, To: c, Key: "y", Mode: "X"}); len(g.Edges) != 1 || g.Edges[0] != want {
		t.Errorf("WaitGraph edges = %+v, want [%+v]", g.Edges, want)
	}

	// Control: the live reference does wound B and fails its wait.
	m.detectMu.Lock()
	m.wound(blocker{stale[0].tx, b}, 0, "y")
	m.detectMu.Unlock()
	if err := <-done; !errors.Is(err, ErrWounded) {
		t.Errorf("B's wait = %v, want ErrWounded", err)
	}
	if key, wounded := m.Wounded(b); !wounded || key != "y" {
		t.Errorf("Wounded(B) = %q, %v; want y, true", key, wounded)
	}
	m.ReleaseAll(b)
	m.ReleaseAll(c)
}

// TestRecycledStateIsClean checks a reused state starts empty: no held
// locks, no wound, and the lock entries it released are reusable by a
// new holder without leaking the old one.
func TestRecycledStateIsClean(t *testing.T) {
	m := NewManager(WoundWait, 0)
	const a, b = 3, 3 + txShardCount
	m.Begin(a, 1)
	for i := 0; i < 3; i++ {
		if err := acquire(m, a, fmt.Sprintf("k%d", i), Exclusive); err != nil {
			t.Fatal(err)
		}
	}
	m.detectMu.Lock()
	m.wound(blocker{m.txs[a%txShardCount].m[a], a}, 0, "k0")
	m.detectMu.Unlock()
	m.ReleaseAll(a)

	m.Begin(b, 2)
	if n := m.HeldCount(b); n != 0 {
		t.Errorf("reused state holds %d locks", n)
	}
	if _, wounded := m.Wounded(b); wounded {
		t.Error("reused state inherited A's wound")
	}
	if err := acquire(m, b, "k1", Shared); err != nil {
		t.Fatal(err)
	}
	s := m.stripeFor("k1")
	s.mu.Lock()
	ls := s.locks["k1"]
	if len(ls.holders) != 1 || ls.holders[0].tx.id != b || ls.holders[0].mode != Shared {
		t.Errorf("k1 holders after reuse: %d entries", len(ls.holders))
	}
	s.mu.Unlock()
	m.ReleaseAll(b)
}
