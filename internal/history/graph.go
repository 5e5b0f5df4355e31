package history

import (
	"fmt"
	"sort"
)

// This file factors the MVSG edge rules of Check into an incrementally
// usable form, so the same construction serves two consumers:
//
//   - the offline checker (Recorder.Check): every committed transaction,
//     writers indexed before any read is resolved, strict integrity —
//     a read of a version with no committed writer is a dirty read;
//   - the online auditor (internal/audit): a bounded window of recently
//     committed transactions, arriving in commit order rather than
//     serialization order, where a read of an unknown version is normal
//     (its writer was evicted from the window or predates it).
//
// Every edge the windowed graph contains is a genuine edge of the full
// MVSG — reads-from edges come from recorded reads, version-order edges
// compare the natural version order (version numbers) — so any cycle it
// finds is a real serializability violation. The converse does not hold:
// a bounded window can only certify the transactions it retains (see
// DESIGN.md on audit window semantics).

// Op is one recorded operation: for a read, the version observed; for a
// write, the version created.
type Op struct {
	Key       string `json:"key"`
	VersionTN uint64 `json:"tn"`
}

// TxHistory is the complete operation record of one committed
// transaction, the unit of Graph growth.
type TxHistory struct {
	ID     uint64
	TN     uint64
	Reads  []Op
	Writes []Op
}

// Edge is a directed MVSG edge between transaction IDs (0 = bootstrap).
type Edge struct {
	From uint64 `json:"from"`
	To   uint64 `json:"to"`
}

// Mode selects how Graph treats reads whose writer it has never seen.
type Mode int

const (
	// Strict mode is the offline checker's: every read must resolve to
	// a committed writer (or the bootstrap state); anything else is a
	// dirty read. Install all writers (AddWrites) before resolving any
	// reads (AddReads).
	Strict Mode = iota
	// Windowed mode is the online auditor's: unresolved reads are kept
	// and resolved late if the writer's commit arrives afterwards (an
	// out-of-order arrival), and silently attributed to the pre-window
	// past otherwise. Transactions are added whole, with Add.
	Windowed
)

type gNode struct {
	id     uint64
	tn     uint64
	reads  []Op
	writes []Op
}

// keyState indexes one key's recorded writers and readers inside the
// graph. Writer versions are unique (checked); readers may read the same
// version many times.
type keyState struct {
	writers map[uint64]uint64 // version TN -> writer id
	reads   []readRef
}

type readRef struct {
	reader    uint64
	versionTN uint64
}

// Graph is an incrementally maintained multiversion serialization graph
// over committed transactions. It is not safe for concurrent use.
type Graph struct {
	mode  Mode
	nodes map[uint64]*gNode
	order []uint64 // insertion order, for EvictOldest
	keys  map[string]*keyState
	rwTN  map[uint64]uint64 // read-write tn -> writer id
	adj   map[uint64]map[uint64]struct{}
	radj  map[uint64]map[uint64]struct{}
	edges int

	// newEdges accumulates the distinct edges added since the last
	// AddReads call, so Add can report exactly what one transaction
	// (plus any late resolutions it triggered) contributed.
	newEdges []Edge

	writerCount int
	evicted     uint64
}

// NewGraph returns an empty graph containing only the virtual bootstrap
// transaction T0 (id 0, tn 0), creator of every version-0 datum.
func NewGraph(mode Mode) *Graph {
	g := &Graph{
		mode:  mode,
		nodes: make(map[uint64]*gNode),
		keys:  make(map[string]*keyState),
		rwTN:  make(map[uint64]uint64),
		adj:   make(map[uint64]map[uint64]struct{}),
		radj:  make(map[uint64]map[uint64]struct{}),
	}
	g.nodes[0] = &gNode{id: 0, tn: 0}
	return g
}

// Len returns the number of committed transactions retained (bootstrap
// excluded).
func (g *Graph) Len() int { return len(g.order) }

// Writers returns how many retained transactions wrote at least one
// version.
func (g *Graph) Writers() int { return g.writerCount }

// Edges returns the number of distinct directed edges.
func (g *Graph) Edges() int { return g.edges }

// Evicted returns how many transactions have been evicted so far.
func (g *Graph) Evicted() uint64 { return g.evicted }

// TN returns the transaction number of a retained node (0 for unknown
// ids and for the bootstrap node).
func (g *Graph) TN(id uint64) uint64 {
	if n := g.nodes[id]; n != nil {
		return n.tn
	}
	return 0
}

// Add installs one committed transaction — writes first, then reads —
// and returns the distinct new edges its operations induced. An error
// reports an integrity violation (duplicate read-write transaction
// number, version-0 or duplicate version write, and in Strict mode a
// dirty read); the transaction is not installed when one is returned.
func (g *Graph) Add(t TxHistory) ([]Edge, error) {
	if err := g.AddWrites(t); err != nil {
		return nil, err
	}
	return g.AddReads(t.ID)
}

// AddWrites validates the transaction and installs its node and writes
// into the graph's indexes, resolving any retained reads that were
// waiting for one of its versions (Windowed mode's out-of-order
// arrivals). Reads are stored but not resolved; call AddReads.
func (g *Graph) AddWrites(t TxHistory) error {
	if t.ID == 0 {
		return fmt.Errorf("history: tx id 0 is reserved for the bootstrap transaction")
	}
	if _, dup := g.nodes[t.ID]; dup {
		return fmt.Errorf("history: tx %d committed twice", t.ID)
	}
	if len(t.Writes) > 0 {
		if other, dup := g.rwTN[t.TN]; dup {
			return fmt.Errorf("history: read-write txs %d and %d share tn %d", other, t.ID, t.TN)
		}
		for _, w := range t.Writes {
			if w.VersionTN == 0 {
				return fmt.Errorf("history: tx %d wrote version 0 of %q (reserved for bootstrap)", t.ID, w.Key)
			}
			if ks := g.keys[w.Key]; ks != nil {
				if _, dup := ks.writers[w.VersionTN]; dup {
					return fmt.Errorf("history: two committed writers created the same version %d", w.VersionTN)
				}
			}
		}
	}

	n := &gNode{id: t.ID, tn: t.TN, reads: t.Reads, writes: t.Writes}
	g.nodes[t.ID] = n
	g.order = append(g.order, t.ID)
	if len(t.Writes) > 0 {
		g.rwTN[t.TN] = t.ID
		g.writerCount++
	}
	for _, w := range t.Writes {
		ks := g.key(w.Key)
		ks.writers[w.VersionTN] = t.ID
		// Late resolution: retained reads of this key gain the edges the
		// new writer implies — including the reads-from edge when the
		// read was of one of this transaction's own versions.
		for _, rd := range ks.reads {
			g.edgesForWriter(w.Key, t.ID, w.VersionTN, rd)
		}
	}
	return nil
}

// AddReads resolves the stored reads of an installed transaction against
// every writer currently indexed, generating reads-from and version-order
// edges, and returns the distinct edges added since the matching
// AddWrites call (late-resolution edges included). In Strict mode a read
// of a version with no indexed writer is a dirty read.
func (g *Graph) AddReads(id uint64) ([]Edge, error) {
	n := g.nodes[id]
	if n == nil {
		return nil, fmt.Errorf("history: AddReads of unknown tx %d", id)
	}
	// newEdges already holds whatever the matching AddWrites call
	// contributed via late resolution; keep accumulating into it.
	for _, rd := range n.reads {
		if ownVersion(n, rd) {
			continue
		}
		k := n.id
		ks := g.key(rd.Key)
		j, jKnown := g.writerOf(rd.Key, rd.VersionTN)
		if !jKnown && g.mode == Strict {
			return nil, fmt.Errorf("history: tx %d read version %d of %q whose writer never committed (dirty read)",
				n.id, rd.VersionTN, rd.Key)
		}
		if jKnown {
			g.addEdge(j, k) // reads-from
		}
		for vtn, i := range ks.writers {
			if (jKnown && i == j) || i == k {
				continue
			}
			if vtn < rd.VersionTN {
				if jKnown {
					g.addEdge(i, j)
				}
			} else {
				g.addEdge(k, i)
			}
		}
		ks.reads = append(ks.reads, readRef{reader: k, versionTN: rd.VersionTN})
	}
	out := make([]Edge, len(g.newEdges))
	copy(out, g.newEdges)
	g.newEdges = g.newEdges[:0]
	return out, nil
}

// edgesForWriter applies the MVSG rules to one retained read when a new
// writer of the same key arrives: either the read was of the new
// writer's version (resolving its reads-from edge and its version-order
// relation to every other writer), or the new writer is just another
// version the read must be ordered against.
func (g *Graph) edgesForWriter(key string, writer, versionTN uint64, rd readRef) {
	k := rd.reader
	if k == writer {
		return
	}
	if versionTN == rd.versionTN {
		// The read's writer arrived: reads-from, plus the version-order
		// edges that were skipped while it was unknown.
		j := writer
		g.addEdge(j, k)
		for vtn, i := range g.key(key).writers {
			if i == j || i == k {
				continue
			}
			if vtn < rd.versionTN {
				g.addEdge(i, j)
			} else {
				g.addEdge(k, i)
			}
		}
		return
	}
	if versionTN < rd.versionTN {
		if j, ok := g.writerOf(key, rd.versionTN); ok && j != writer && j != k {
			g.addEdge(writer, j)
		}
	} else {
		g.addEdge(k, writer)
	}
}

// EvictOldest removes the oldest retained transaction, its index entries
// and its incident edges, returning its id (0 when the graph is empty).
// Derived edges between surviving nodes are kept: they are genuine MVSG
// edges regardless of whether the operation that justified them is still
// retained.
func (g *Graph) EvictOldest() uint64 {
	if len(g.order) == 0 {
		return 0
	}
	id := g.order[0]
	g.order = g.order[1:]
	n := g.nodes[id]
	delete(g.nodes, id)
	g.evicted++

	if len(n.writes) > 0 {
		if g.rwTN[n.tn] == id {
			delete(g.rwTN, n.tn)
		}
		g.writerCount--
	}
	for _, w := range n.writes {
		if ks := g.keys[w.Key]; ks != nil {
			delete(ks.writers, w.VersionTN)
			g.pruneKey(w.Key, ks)
		}
	}
	for _, rd := range n.reads {
		if ks := g.keys[rd.Key]; ks != nil {
			kept := ks.reads[:0]
			for _, ref := range ks.reads {
				if ref.reader != id {
					kept = append(kept, ref)
				}
			}
			ks.reads = kept
			g.pruneKey(rd.Key, ks)
		}
	}
	for to := range g.adj[id] {
		delete(g.radj[to], id)
		g.edges--
	}
	delete(g.adj, id)
	for from := range g.radj[id] {
		delete(g.adj[from], id)
		g.edges--
	}
	delete(g.radj, id)
	return id
}

func (g *Graph) pruneKey(key string, ks *keyState) {
	if len(ks.writers) == 0 && len(ks.reads) == 0 {
		delete(g.keys, key)
	}
}

func (g *Graph) key(key string) *keyState {
	ks := g.keys[key]
	if ks == nil {
		ks = &keyState{writers: make(map[uint64]uint64)}
		g.keys[key] = ks
	}
	return ks
}

// writerOf resolves a version to its writer: version 0 is the bootstrap
// transaction, anything else must be indexed.
func (g *Graph) writerOf(key string, versionTN uint64) (uint64, bool) {
	if versionTN == 0 {
		return 0, true
	}
	ks := g.keys[key]
	if ks == nil {
		return 0, false
	}
	id, ok := ks.writers[versionTN]
	return id, ok
}

func ownVersion(n *gNode, rd Op) bool {
	for _, w := range n.writes {
		if w.Key == rd.Key && w.VersionTN == rd.VersionTN {
			return true
		}
	}
	return false
}

func (g *Graph) addEdge(from, to uint64) {
	if from == to {
		return
	}
	m := g.adj[from]
	if m == nil {
		m = make(map[uint64]struct{})
		g.adj[from] = m
	}
	if _, ok := m[to]; ok {
		return
	}
	m[to] = struct{}{}
	r := g.radj[to]
	if r == nil {
		r = make(map[uint64]struct{})
		g.radj[to] = r
	}
	r[from] = struct{}{}
	g.edges++
	g.newEdges = append(g.newEdges, Edge{From: from, To: to})
}

// FindCycle searches the whole graph and returns one cycle as a node-id
// list (first node not repeated at the end), or nil if the graph is
// acyclic. Nodes are visited in insertion order (bootstrap first) so the
// result is deterministic for a deterministic history.
func (g *Graph) FindCycle() []uint64 {
	seeds := make([]uint64, 0, len(g.order)+1)
	seeds = append(seeds, 0)
	seeds = append(seeds, g.order...)
	return g.FindCycleFrom(seeds)
}

// FindCycleFrom is FindCycle restricted to the nodes reachable from
// seeds: one three-colour DFS, linear in the edges it reaches. If the
// graph was acyclic before a batch of edges arrived, every new cycle
// passes through the head of one of them, so seeding with those heads
// finds it. The online auditor searches this way once per commit.
func (g *Graph) FindCycleFrom(seeds []uint64) []uint64 {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make(map[uint64]int)
	parent := make(map[uint64]uint64)

	type frame struct {
		node uint64
		next []uint64
	}
	succ := func(id uint64) []uint64 {
		out := make([]uint64, 0, len(g.adj[id]))
		for to := range g.adj[id] {
			out = append(out, to)
		}
		sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
		return out
	}
	for _, s := range seeds {
		if color[s] != white {
			continue
		}
		color[s] = gray
		stack := []frame{{s, succ(s)}}
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			if len(f.next) > 0 {
				n := f.next[0]
				f.next = f.next[1:]
				switch color[n] {
				case white:
					color[n] = gray
					parent[n] = f.node
					stack = append(stack, frame{n, succ(n)})
				case gray:
					cyc := []uint64{n}
					for v := f.node; v != n; v = parent[v] {
						cyc = append(cyc, v)
					}
					for i, j := 0, len(cyc)-1; i < j; i, j = i+1, j-1 {
						cyc[i], cyc[j] = cyc[j], cyc[i]
					}
					return cyc
				}
				continue
			}
			color[f.node] = black
			stack = stack[:len(stack)-1]
		}
	}
	return nil
}
