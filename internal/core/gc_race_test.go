package core

import (
	"sync"
	"sync/atomic"
	"testing"

	"mvdb/internal/engine"
	"mvdb/internal/gc"
)

// TestGCRacesReadOnlyBegin races garbage-collection passes against
// read-only begins on one hot key. A read-only transaction's snapshot
// must be registered with the collector no later than it is taken: a
// pass that computes its watermark in between sees a vtnc past the
// snapshot and no registration holding it back, and prunes the very
// version the snapshot is about to read. Every read must find the key.
func TestGCRacesReadOnlyBegin(t *testing.T) {
	const readers, begins = 4, 5000
	e := New(Options{Protocol: TwoPhaseLocking, TrackReadOnly: true})
	defer e.Close()
	if err := e.Bootstrap(map[string][]byte{"hot": []byte("0")}); err != nil {
		t.Fatal(err)
	}
	c := gc.New(e, 0)

	stop := make(chan struct{})
	var bg sync.WaitGroup
	bg.Add(2)
	go func() { // the writer keeps vtnc moving and the chain growing
		defer bg.Done()
		val := []byte("v")
		for {
			select {
			case <-stop:
				return
			default:
			}
			tx, err := e.Begin(engine.ReadWrite)
			if err != nil {
				t.Error(err)
				return
			}
			if err := tx.Put("hot", val); err != nil {
				t.Error(err)
				return
			}
			if err := tx.Commit(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() { // back-to-back collection passes
		defer bg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				c.Collect()
			}
		}
	}()

	var lost atomic.Int64
	var rd sync.WaitGroup
	for r := 0; r < readers; r++ {
		rd.Add(1)
		go func() {
			defer rd.Done()
			for i := 0; i < begins; i++ {
				ro, err := e.Begin(engine.ReadOnly)
				if err != nil {
					t.Error(err)
					return
				}
				if _, err := ro.Get("hot"); err != nil {
					lost.Add(1)
				}
				ro.Commit()
			}
		}()
	}
	rd.Wait()
	close(stop)
	bg.Wait()
	if n := lost.Load(); n > 0 {
		t.Fatalf("%d of %d read-only snapshots lost the hot key's version to GC", n, readers*begins)
	}
}
