package mvdb

import (
	"errors"
	"testing"
)

// disabledPathWorkloads is the allocation budget of a database opened
// with every instrument off. An Update allocates its Tx, its engine
// transaction and its VC entry; lock state and write sets are recycled,
// so the budget does not grow with the number of keys touched. A View
// allocates its Tx and its engine transaction.
var disabledPathWorkloads = []struct {
	name  string
	bound float64
	run   func(db *DB) error
}{
	{"Update put 1 key", 3, func(db *DB) error {
		return db.Update(func(tx *Tx) error { return tx.Put("k", guardVal) })
	}},
	{"Update get+put 4 keys", 3, func(db *DB) error {
		return db.Update(func(tx *Tx) error {
			for _, k := range guardKeys {
				if _, err := tx.Get(k); err != nil && !errors.Is(err, ErrNotFound) {
					return err
				}
				if err := tx.Put(k, guardVal); err != nil {
					return err
				}
			}
			return nil
		})
	}},
	{"View get 1 key", 2, func(db *DB) error {
		return db.View(func(tx *Tx) error {
			_, err := tx.Get("k")
			return err
		})
	}},
}

var (
	guardVal  = []byte("v")
	guardKeys = []string{"k0", "k1", "k2", "k3"}
)

// checkDisabledPath is the alloc guard every instrument shares: opened
// with only Protocol set, the instrument's accessor must report it off
// (off returns true) and each disabled-path workload must stay within
// its bound, so its hooks reduce to nil tests.
func checkDisabledPath(t *testing.T, off func(*DB) bool) {
	t.Helper()
	db, err := Open(Options{Protocol: TwoPhaseLocking})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if !off(db) {
		t.Fatal("instrument is on with its option unset")
	}
	for _, w := range disabledPathWorkloads {
		run := func() {
			if err := w.run(db); err != nil {
				t.Fatal(err)
			}
		}
		// Warm every lock-registry shard's free list first: the guard
		// measures the steady state, not the first few transactions.
		for i := 0; i < 64; i++ {
			run()
		}
		if got := testing.AllocsPerRun(200, run); got > w.bound {
			t.Errorf("%s: %.1f allocs/op, want <= %v", w.name, got, w.bound)
		}
	}
}

func TestTracingDisabledZeroOverhead(t *testing.T) {
	checkDisabledPath(t, func(db *DB) bool { return db.TxTraces() == nil })
}

func TestPhaseTimingDisabledZeroOverhead(t *testing.T) {
	checkDisabledPath(t, func(db *DB) bool { return db.Stats().Phases == nil })
}

func TestHotspotDisabledZeroOverhead(t *testing.T) {
	checkDisabledPath(t, func(db *DB) bool { return db.Hotspots() == nil })
}

func TestHealthDisabledZeroOverhead(t *testing.T) {
	checkDisabledPath(t, func(db *DB) bool { return db.Health() == nil })
}

func TestAuditDisabledZeroOverhead(t *testing.T) {
	checkDisabledPath(t, func(db *DB) bool { return db.Audit() == nil })
}
