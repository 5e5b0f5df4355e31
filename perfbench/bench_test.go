package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"
	"time"

	"mvdb"
)

// TestShortRuns runs every workload briefly, untraced and traced, with
// every check on.
func TestShortRuns(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			cfg := config{w: w, seed: 7, seconds: 0.3}
			p, err := runPhase(cfg, 2, traced, cfg.seconds, 1, t.TempDir())
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			r := p.result()
			if p.updates == 0 || r.Attempted <= p.updates {
				t.Fatalf("%s traced=%v: %d updates, %d attempted", w.name, traced, p.updates, r.Attempted)
			}
			if !p.totalOK {
				t.Errorf("%s traced=%v: final scan saw %d keys totalling %d", w.name, traced, p.totalKeys, p.total)
			}
			if w.logged && (p.durChecked == 0 || p.durBad != 0) {
				t.Errorf("%s traced=%v: %d of %d acknowledged keys wrong after reopen: %s",
					w.name, traced, p.durBad, p.durChecked, p.durFirst)
			}
			if w.bank && p.views == 0 {
				t.Errorf("%s traced=%v: no views ran", w.name, traced)
			}
			if p.badGroups > 0 {
				t.Errorf("%s traced=%v: %d snapshot group sums wrong: %v", w.name, traced, p.badGroups, p.badSums)
			}
			if !r.Correct || r.Failed != 0 {
				t.Errorf("%s traced=%v: correct=%v, %d failed, first error %v", w.name, traced, r.Correct, r.Failed, p.firstErr)
			}
			if traced && p.sp.beginRW.n == 0 {
				t.Errorf("%s: traced run recorded no Begin spans", w.name)
			}
		}
	}
}

// TestNoGCBesideViews keeps background GC off every workload that runs
// View: a GC pass can prune a version that a read-only snapshot has just
// taken (see NOTES.md), and no workload may fail an operation.
func TestNoGCBesideViews(t *testing.T) {
	gc := false
	for _, w := range workloads {
		if w.gcInterval > 0 && w.viewFrac > 0 {
			t.Errorf("%s runs View with background GC on", w.name)
		}
		gc = gc || w.gcInterval > 0
	}
	if !gc {
		t.Error("no workload runs background GC")
	}
}

func openPreloaded(t *testing.T, in *inputs) *mvdb.DB {
	t.Helper()
	db, err := mvdb.Open(mvdb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	if err := db.Bootstrap(in.preload); err != nil {
		t.Fatal(err)
	}
	return db
}

// TestGroupCheckFlagsBrokenSnapshot breaks one group's sum and checks
// that a view of it fails while a view of an intact group passes.
func TestGroupCheckFlagsBrokenSnapshot(t *testing.T) {
	w, err := findWorkload("bank-hot")
	if err != nil {
		t.Fatal(err)
	}
	w.keys = 4 * groupSize
	in := makeInputs(w)
	db := openPreloaded(t, in)
	if err := db.Update(func(tx *mvdb.Tx) error {
		return tx.Put(in.keys[0], in.vals.encode(initialBalance+1))
	}); err != nil {
		t.Fatal(err)
	}
	ops := []op{{view: true, keys: [keysPerUpdate]uint32{0}}, {view: true, keys: [keysPerUpdate]uint32{1}}}
	c := newClient(db, w, in, ops, false, 1)
	c.cur = &ops[0]
	if c.view() || c.badGroups != 1 || len(c.badSums) != 1 || c.badSums[0] != groupSize*initialBalance+1 {
		t.Fatalf("broken group passed: badGroups %d, sums %v", c.badGroups, c.badSums)
	}
	c.cur = &ops[1]
	if !c.view() || c.badGroups != 1 {
		t.Fatalf("intact group failed: badGroups %d, sums %v", c.badGroups, c.badSums)
	}
	keys, total, err := scanTotal(db)
	if err != nil {
		t.Fatal(err)
	}
	if totalOK(w, keys, total, 0) {
		t.Fatalf("bank total %d over %d keys passed after money was created", total, keys)
	}
}

// TestTotalCheckFlagsLostUpdate checks that the counter total flags an
// acknowledged update whose increments are missing, and a missing key.
func TestTotalCheckFlagsLostUpdate(t *testing.T) {
	w, err := findWorkload("update-mem")
	if err != nil {
		t.Fatal(err)
	}
	w.keys = 64
	in := makeInputs(w)
	db := openPreloaded(t, in)
	ops := makeStreams(w, 3, 1)[0][:10]
	c := newClient(db, w, in, ops, false, 1)
	for i := range ops {
		c.cur = &ops[i]
		if err := c.update(); err != nil {
			t.Fatal(err)
		}
	}
	keys, total, err := scanTotal(db)
	if err != nil {
		t.Fatal(err)
	}
	if !totalOK(w, keys, total, 10) {
		t.Fatalf("10 updates: total %d over %d keys failed the check", total, keys)
	}
	if totalOK(w, keys, total, 11) {
		t.Fatal("an acknowledged update whose writes are missing passed the check")
	}
	if totalOK(w, keys-1, total, 10) {
		t.Fatal("a missing key passed the check")
	}
}

// TestDurableCheckFlagsWrongValue checks that a key whose value differs
// from the last acknowledged one, or is missing, is counted.
func TestDurableCheckFlagsWrongValue(t *testing.T) {
	w, err := findWorkload("update-logged")
	if err != nil {
		t.Fatal(err)
	}
	w.keys = 8
	in := makeInputs(w)
	db := openPreloaded(t, in)
	if err := db.Update(func(tx *mvdb.Tx) error { return tx.Delete(in.keys[2]) }); err != nil {
		t.Fatal(err)
	}
	acked := make([]int64, w.keys)
	acked[1], acked[2] = 5, 1 // key 1 still holds 0, key 2 is gone
	checked, bad, first, err := durableMismatches(db, in, acked)
	if err != nil {
		t.Fatal(err)
	}
	if checked != 2 || bad != 2 || first == "" {
		t.Fatalf("checked %d, bad %d, first %q; want 2, 2 and a message", checked, bad, first)
	}
}

// TestBenchmarkJSONMatchesProgram checks that BENCHMARK.json names the
// workloads and metrics this program runs and reports, with the same
// units.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var ours []string
	for _, w := range workloads {
		ours = append(ours, w.name)
	}
	if !equalSorted(names, ours) {
		t.Errorf("BENCHMARK.json workloads %v, program %v", names, ours)
	}
	p := &phase{win: make([]window, 1)}
	check := func(kind string, want []struct{ Name, Unit string }, got map[string]metric) {
		t.Helper()
		if len(want) != len(got) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, program reports %d", kind, len(want), len(got))
		}
		for _, m := range want {
			g, ok := got[m.Name]
			if !ok {
				t.Errorf("%s: %s is not reported", kind, m.Name)
			} else if g.Unit != m.Unit {
				t.Errorf("%s: %s unit %q, program %q", kind, m.Name, m.Unit, g.Unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, p.endToEnd())
	check("per_layer", spec.PerLayer, perLayer(p, p))
}

func equalSorted(a, b []string) bool {
	a, b = append([]string(nil), a...), append([]string(nil), b...)
	sort.Strings(a)
	sort.Strings(b)
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestHistQuantile(t *testing.T) {
	var h hist
	for i := 1; i <= 1000; i++ {
		h.record(1000 * 1000) // 1 ms
	}
	h.record(1e9)
	if got := h.quantileUS(0.5); got < 990 || got > 1010 {
		t.Fatalf("p50 %v us, want ~1000", got)
	}
	for v := uint64(0); v < 1<<20; v += 977 {
		lo, w := bucketRange(bucketOf(v))
		if float64(v) < lo || float64(v) >= lo+w {
			t.Fatalf("%d outside its bucket [%v, %v)", v, lo, lo+w)
		}
	}
}

// TestTxnPerSShortLoop checks that a loop shorter than one window is
// divided by the time it ran, not by a whole window.
func TestTxnPerSShortLoop(t *testing.T) {
	p := &phase{win: make([]window, 1), elapsed: 500 * time.Millisecond}
	p.win[0].committed = 1000
	if got := p.txnPerS(); got != 2000 {
		t.Fatalf("txn/s %v for 1000 calls in 0.5 s, want 2000", got)
	}
}
