package history

import (
	"fmt"
	"testing"
)

func edgeSet(g *Graph) map[Edge]bool {
	set := make(map[Edge]bool)
	for from, tos := range g.adj {
		for to := range tos {
			set[Edge{From: from, To: to}] = true
		}
	}
	return set
}

// The windowed graph must converge to the same edge set no matter the
// order transactions commit in — late resolution is what makes the
// online auditor agree with the offline batch checker.
func TestGraphWindowedOutOfOrder(t *testing.T) {
	// T1 writes x@1; T2 reads x@1 and writes y@2. Arrival order: T2's
	// commit is processed before T1's (reader before its writer).
	t1 := TxHistory{ID: 1, TN: 1, Writes: []Op{{Key: "x", VersionTN: 1}}}
	t2 := TxHistory{ID: 2, TN: 2, Reads: []Op{{Key: "x", VersionTN: 1}}, Writes: []Op{{Key: "y", VersionTN: 2}}}

	inOrder := NewGraph(Windowed)
	for _, tx := range []TxHistory{t1, t2} {
		if _, err := inOrder.Add(tx); err != nil {
			t.Fatal(err)
		}
	}
	outOfOrder := NewGraph(Windowed)
	if _, err := outOfOrder.Add(t2); err != nil {
		t.Fatal(err)
	}
	edges, err := outOfOrder.Add(t1)
	if err != nil {
		t.Fatal(err)
	}
	// The reads-from edge T1->T2 must appear as a late resolution when
	// T1 (the writer) arrives.
	found := false
	for _, e := range edges {
		if e == (Edge{From: 1, To: 2}) {
			found = true
		}
	}
	if !found {
		t.Fatalf("late resolution did not report T1->T2; got %v", edges)
	}
	want, got := edgeSet(inOrder), edgeSet(outOfOrder)
	if len(want) != len(got) {
		t.Fatalf("edge sets differ: in-order %v, out-of-order %v", want, got)
	}
	for e := range want {
		if !got[e] {
			t.Fatalf("out-of-order graph missing edge %v", e)
		}
	}
}

// A read whose writer never arrives is a dirty read offline but normal
// online (the writer predates the window).
func TestGraphUnknownWriterByMode(t *testing.T) {
	rd := TxHistory{ID: 5, TN: 5, Reads: []Op{{Key: "x", VersionTN: 3}}}

	strict := NewGraph(Strict)
	if err := strict.AddWrites(rd); err != nil {
		t.Fatal(err)
	}
	if _, err := strict.AddReads(rd.ID); err == nil {
		t.Fatal("strict mode accepted a read with no committed writer")
	}

	windowed := NewGraph(Windowed)
	if _, err := windowed.Add(rd); err != nil {
		t.Fatalf("windowed mode rejected a pre-window read: %v", err)
	}
}

func TestGraphIntegrityChecks(t *testing.T) {
	g := NewGraph(Windowed)
	if _, err := g.Add(TxHistory{ID: 1, TN: 1, Writes: []Op{{Key: "x", VersionTN: 1}}}); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Add(TxHistory{ID: 1, TN: 9}); err == nil {
		t.Fatal("duplicate commit accepted")
	}
	if _, err := g.Add(TxHistory{ID: 2, TN: 1, Writes: []Op{{Key: "y", VersionTN: 7}}}); err == nil {
		t.Fatal("duplicate read-write tn accepted")
	}
	if _, err := g.Add(TxHistory{ID: 3, TN: 3, Writes: []Op{{Key: "x", VersionTN: 1}}}); err == nil {
		t.Fatal("duplicate version accepted")
	}
	if _, err := g.Add(TxHistory{ID: 4, TN: 4, Writes: []Op{{Key: "x", VersionTN: 0}}}); err == nil {
		t.Fatal("write of version 0 accepted")
	}
	// Failed Adds must not install anything.
	if g.Len() != 1 || g.Writers() != 1 {
		t.Fatalf("failed adds changed the graph: len=%d writers=%d", g.Len(), g.Writers())
	}
}

// Eviction removes the node, its index entries and incident edges, but
// keeps derived edges between survivors (they remain genuine MVSG
// edges), and never yields false-positive cycles.
func TestGraphEviction(t *testing.T) {
	g := NewGraph(Windowed)
	// A chain of writers each reading the previous version of x.
	const n = 8
	for i := uint64(1); i <= n; i++ {
		tx := TxHistory{ID: i, TN: i, Writes: []Op{{Key: "x", VersionTN: i}}}
		if i > 1 {
			tx.Reads = []Op{{Key: "x", VersionTN: i - 1}}
		}
		if _, err := g.Add(tx); err != nil {
			t.Fatal(err)
		}
	}
	if g.Writers() != n {
		t.Fatalf("writers = %d, want %d", g.Writers(), n)
	}
	for g.Writers() > 3 {
		if g.EvictOldest() == 0 {
			t.Fatal("EvictOldest returned 0 with nodes retained")
		}
	}
	if g.Writers() != 3 || g.Len() != 3 {
		t.Fatalf("after eviction writers=%d len=%d, want 3/3", g.Writers(), g.Len())
	}
	if g.Evicted() != n-3 {
		t.Fatalf("evicted = %d, want %d", g.Evicted(), n-3)
	}
	// Edges among survivors (6->7->8 chain region) must remain.
	if len(g.adj[7]) == 0 {
		t.Fatal("eviction dropped edges between surviving nodes")
	}
	// No edge may touch an evicted node.
	for from, tos := range g.adj {
		if _, ok := g.nodes[from]; !ok {
			t.Fatalf("edge from evicted node %d survives", from)
		}
		for to := range tos {
			if _, ok := g.nodes[to]; !ok {
				t.Fatalf("edge to evicted node %d survives", to)
			}
		}
	}
	if c := g.FindCycle(); c != nil {
		t.Fatalf("acyclic history produced cycle %v after eviction", c)
	}
	// The graph keeps working after eviction.
	if _, err := g.Add(TxHistory{ID: n + 1, TN: n + 1,
		Reads:  []Op{{Key: "x", VersionTN: n}},
		Writes: []Op{{Key: "x", VersionTN: n + 1}}}); err != nil {
		t.Fatal(err)
	}
}

// The per-commit cycle probe: a cycle is visible the moment its closing
// edge arrives, to a search seeded from the new edges' heads.
func TestFindCycleFromFindsCycleIncrementally(t *testing.T) {
	// The A1 anomaly shape: T1 (tn 1) reads T2's version of x (tn 2) and
	// overwrites it with its own, smaller-numbered version; a reader of
	// x@2 then orders T1 before T2, closing T1 -> T2 -> T1.
	g := NewGraph(Windowed)
	if _, err := g.Add(TxHistory{ID: 2, TN: 2, Writes: []Op{{Key: "x", VersionTN: 2}}}); err != nil {
		t.Fatal(err)
	}
	edges, err := g.Add(TxHistory{ID: 1, TN: 1,
		Reads:  []Op{{Key: "x", VersionTN: 2}},
		Writes: []Op{{Key: "x", VersionTN: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	if cycleClosedBy(g, edges) {
		t.Fatal("cycle reported before the closing read arrived")
	}
	edges, err = g.Add(TxHistory{ID: 3, TN: 3, Reads: []Op{{Key: "x", VersionTN: 2}}})
	if err != nil {
		t.Fatal(err)
	}
	if !cycleClosedBy(g, edges) {
		t.Fatalf("closing edge did not reveal the cycle; new edges %v", edges)
	}
	if g.FindCycle() == nil {
		t.Fatal("FindCycle missed the cycle FindCycleFrom found")
	}
}

func cycleClosedBy(g *Graph, edges []Edge) bool {
	heads := make([]uint64, len(edges))
	for i, e := range edges {
		heads[i] = e.To
	}
	return g.FindCycleFrom(heads) != nil
}

func TestFindCycleFromNoCycle(t *testing.T) {
	g := NewGraph(Windowed)
	for i := uint64(1); i <= 3; i++ {
		if _, err := g.Add(TxHistory{ID: i, TN: i, Writes: []Op{{Key: fmt.Sprintf("k%d", i), VersionTN: i}}}); err != nil {
			t.Fatal(err)
		}
	}
	if c := g.FindCycleFrom([]uint64{1, 2, 3}); c != nil {
		t.Fatalf("found cycle %v in edgeless graph", c)
	}
}
