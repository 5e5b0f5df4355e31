package core

import (
	"errors"
	"sync"
	"testing"
	"time"

	"mvdb/internal/engine"
	"mvdb/internal/hotspot"
	"mvdb/internal/lock"
	"mvdb/internal/obs"
)

// TestSnapshotFields checks the engine-level snapshot assembly: counter
// registry, protocol name, vc gauges and storage-shape gauges.
func TestSnapshotFields(t *testing.T) {
	e := newEngine(t, TimestampOrdering, nil)
	mustCommitWrite(t, e, map[string]string{"a": "1", "b": "1"})
	mustCommitWrite(t, e, map[string]string{"a": "2"})
	ro, _ := e.Begin(engine.ReadOnly)
	ro.Get("a")
	ro.Commit()

	sn := e.Snapshot()
	if sn.Protocol != "vc+to" {
		t.Fatalf("protocol = %q", sn.Protocol)
	}
	if sn.CommitsRW != 2 || sn.BeginsRW != 2 || sn.CommitsRO != 1 || sn.BeginsRO != 1 {
		t.Fatalf("lifecycle counters = %+v", sn)
	}
	if sn.VTNC != sn.TNC-1 || sn.VisibilityLag != 0 {
		t.Fatalf("vc gauges = tnc=%d vtnc=%d lag=%d", sn.TNC, sn.VTNC, sn.VisibilityLag)
	}
	if sn.Keys != 2 || sn.Versions != 3 || sn.MaxVersionChain != 2 {
		t.Fatalf("storage gauges = keys=%d versions=%d max=%d", sn.Keys, sn.Versions, sn.MaxVersionChain)
	}
	if sn.MeanVersionChain != 1.5 {
		t.Fatalf("mean chain = %v", sn.MeanVersionChain)
	}
	m := sn.Map()
	if m["commits.rw"] != 2 || m["vc.tnc"] != int64(sn.TNC) {
		t.Fatalf("legacy map = %v", m)
	}
}

// TestLockWaitHistogram makes one transaction block behind another and
// checks the wait lands in the snapshot's lock-wait summary.
func TestLockWaitHistogram(t *testing.T) {
	e := newEngine(t, TwoPhaseLocking, nil)
	tx1, _ := e.Begin(engine.ReadWrite)
	if err := tx1.Put("x", []byte("1")); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tx2, _ := e.Begin(engine.ReadWrite)
		if err := tx2.Put("x", []byte("2")); err != nil {
			t.Error(err)
			return
		}
		tx2.Commit()
	}()
	time.Sleep(20 * time.Millisecond) // let tx2 block on x
	tx1.Commit()
	wg.Wait()
	sn := e.Snapshot()
	if sn.LockWait.Count == 0 {
		t.Fatal("no lock waits recorded in histogram")
	}
	if sn.LockWait.Max < (10 * time.Millisecond).Nanoseconds() {
		t.Fatalf("max lock wait %s implausibly small for a 20ms hold", time.Duration(sn.LockWait.Max))
	}
	if sn.LockWaits == 0 {
		t.Fatal("lock manager wait counter is zero")
	}
}

// TestAbortCauseCounters: each abort cause increments its own counter —
// including the timeout split (previously folded into deadlocks).
func TestAbortCauseCounters(t *testing.T) {
	e := New(Options{Protocol: TwoPhaseLocking, LockPolicy: lock.TimeoutPolicy, LockTimeout: 5 * time.Millisecond})
	defer e.Close()
	tx1, _ := e.Begin(engine.ReadWrite)
	tx1.Put("x", []byte("1"))
	tx2, _ := e.Begin(engine.ReadWrite)
	if err := tx2.Put("x", []byte("2")); err == nil {
		t.Fatal("expected a lock timeout")
	}
	tx1.Commit()
	sn := e.Snapshot()
	if sn.AbortsTimeout != 1 {
		t.Fatalf("aborts.timeout = %d, want 1", sn.AbortsTimeout)
	}
	if sn.AbortsDeadlock != 0 {
		t.Fatalf("timeout abort leaked into aborts.deadlock (%d)", sn.AbortsDeadlock)
	}
}

// TestCommitTimeWoundCounted: a 2PL transaction wounded while it holds
// a lock, and stopped at Commit, is one abort — counted once by the
// Stats counter, the stripe heatmap and the conflict pairs alike, on
// the key its wounder wanted.
func TestCommitTimeWoundCounted(t *testing.T) {
	e := New(Options{
		Protocol:   TwoPhaseLocking,
		LockPolicy: lock.WoundWait,
		Hotspot:    hotspot.New(hotspot.Options{SampleEvery: 1}),
	})
	defer e.Close()

	older, _ := e.Begin(engine.ReadWrite)
	younger, _ := e.Begin(engine.ReadWrite)
	if err := younger.Put("k", []byte("y")); err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() { errc <- older.Put("k", []byte("o")) }()
	deadline := time.Now().Add(5 * time.Second)
	for _, wounded := e.locks.Wounded(younger.ID()); !wounded; _, wounded = e.locks.Wounded(younger.ID()) {
		if time.Now().After(deadline) {
			t.Fatal("younger transaction never wounded")
		}
		time.Sleep(time.Millisecond)
	}
	if err := younger.Commit(); !errors.Is(err, engine.ErrWounded) {
		t.Fatalf("younger Commit err = %v, want ErrWounded", err)
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	if err := older.Commit(); err != nil {
		t.Fatal(err)
	}

	sn := e.Snapshot()
	var stripeWounds int64
	for _, s := range sn.Hotspot.Stripes {
		stripeWounds += s.Wounds
	}
	var pairs uint64
	for _, c := range sn.Hotspot.Conflicts {
		if c.Cause == "wounded" {
			if c.Key != "k" {
				t.Errorf("wound charged to key %q, want k", c.Key)
			}
			pairs += c.Count
		}
	}
	if sn.AbortsWounded != 1 || stripeWounds != 1 || pairs != 1 {
		t.Fatalf("aborts.wounded=%d stripe wounds=%d wounded pairs=%d, want 1/1/1",
			sn.AbortsWounded, stripeWounds, pairs)
	}
}

// TestTraceOptionRecordsEngineEvents wires a tracer through Options and
// checks lifecycle plus lock-wait events appear.
func TestTraceOptionRecordsEngineEvents(t *testing.T) {
	tr := obs.NewTracer(256)
	e := New(Options{Protocol: TwoPhaseLocking, Trace: tr})
	defer e.Close()

	tx1, _ := e.Begin(engine.ReadWrite)
	tx1.Put("x", []byte("1"))
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tx2, _ := e.Begin(engine.ReadWrite)
		if tx2.Put("x", []byte("2")) == nil {
			tx2.Commit()
		}
	}()
	time.Sleep(20 * time.Millisecond)
	tx1.Commit()
	wg.Wait()

	seen := map[obs.EventType]int{}
	for _, ev := range tr.Dump() {
		seen[ev.Type]++
	}
	for _, ty := range []obs.EventType{obs.EvBegin, obs.EvWrite, obs.EvCommit, obs.EvLockWait} {
		if seen[ty] == 0 {
			t.Errorf("no %s events traced (saw %v)", ty, seen)
		}
	}
}
