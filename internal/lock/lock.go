// Package lock implements the two-phase-locking substrate used by the
// VC+2PL engine (paper Figure 4) and the single-version and CTL-based
// baselines.
//
// The manager provides shared/exclusive locks with FIFO queues and lock
// upgrade, plus three deadlock-handling policies:
//
//   - Detect: build the waits-for relation lazily and run a cycle check
//     whenever a request blocks; the requester that would close a cycle
//     is the victim (ErrDeadlock).
//   - WoundWait: an older requester wounds conflicting younger holders
//     and waiters; a younger requester waits. Wait edges then always point
//     from younger to older, so no cycle can form.
//   - Timeout: a blocked request fails with ErrTimeout after a bound.
//
// Victims must abort and call ReleaseAll; the engines above retry them.
// Note the paper's observation (Section 4.4): deadlocks are entirely a
// concurrency-control phenomenon. Transactions interact with the version
// control module only after their lock-point, so the VC module can never
// participate in a deadlock — this package is the only place blocking
// cycles can arise in the VC+2PL engine.
//
// # Striping
//
// The lock table is hash-striped: each stripe owns a disjoint slice of
// the key space under its own mutex, so uncontended acquisitions on
// unrelated keys never serialize on a shared lock. Per-transaction state
// (held set, current wait, wound flag) lives under a small per-transaction
// mutex. The lock order is stripe mutex → transaction mutex, one of each
// at a time; nothing ever takes a stripe mutex while holding a
// transaction mutex, which is what makes cross-stripe release and grant
// safe.
//
// The slow path — deadlock detection and wound-wait victim selection,
// which must observe wait-for edges that span stripes — is serialized by
// a single detector mutex taken only when a request actually blocks.
// Under that mutex the detector walks the wait-for relation locking one
// stripe (or one transaction) at a time. This is sound because the edges
// of a real deadlock cycle are stable: every transaction on the cycle is
// parked, so none of them can release the lock that would break an edge
// while the walk is in progress, and the request that closes a cycle
// always runs a detection pass after its edge is published. The converse
// does not hold — a concurrent grant outside the detector mutex can, in
// principle, let the walk observe two edges that never coexisted and
// abort a requester that was not truly deadlocked. Such spurious victims
// are safe (the transaction retries) and vanishingly rare; see DESIGN.md.
package lock

import (
	"errors"
	"fmt"
	"hash/maphash"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Mode is a lock mode.
type Mode int

const (
	// Shared is a read lock; compatible with other Shared locks.
	Shared Mode = iota
	// Exclusive is a write lock; compatible with nothing.
	Exclusive
)

func (m Mode) String() string {
	if m == Shared {
		return "S"
	}
	return "X"
}

// Policy selects the deadlock-handling strategy.
type Policy int

const (
	// Detect runs cycle detection on block and aborts the requester
	// closing a cycle.
	Detect Policy = iota
	// WoundWait wounds younger conflicting transactions.
	WoundWait
	// TimeoutPolicy aborts a request that waits longer than the
	// manager's timeout.
	TimeoutPolicy
)

// Errors returned by Acquire. All of them mean the transaction must abort
// (release its locks) and may be retried by the caller.
var (
	ErrDeadlock = errors.New("lock: deadlock detected, requester chosen as victim")
	ErrWounded  = errors.New("lock: wounded by an older transaction")
	ErrTimeout  = errors.New("lock: wait timed out")
	ErrUnknown  = errors.New("lock: unknown transaction")
)

// DefaultStripes is the stripe count used by NewManager. Power of two;
// sized so that a few dozen hot worker goroutines rarely collide.
const DefaultStripes = 32

type request struct {
	tx      *txState
	key     string
	mode    Mode
	upgrade bool
	// ready receives the request's verdict exactly once. The invariant
	// that makes this safe across stripes: only the goroutine that
	// removes the request from its queue (under the stripe mutex) may
	// send.
	ready chan error
}

// txState is one transaction's lock state. States are recycled through
// the registry's free lists (see Begin and ReleaseAll), so a *txState
// can outlive the transaction it was captured for: code that found one
// under a stripe mutex records the id it saw (a blocker) and acts on it
// only while tx.id still matches under tx.mu.
type txState struct {
	// mu guards every field. Lock order: a stripe mutex may be held
	// while taking mu; never the reverse.
	mu  sync.Mutex
	id  uint64
	age uint64 // smaller = older; used by WoundWait

	held    map[string]Mode
	waiting *request
	wounded bool
	// woundKey is the key an older transaction requested when it
	// wounded this one: the contested key the abort is charged to.
	woundKey string
	// keys is ReleaseAll's scratch copy of the held set, kept for reuse.
	keys []string
}

// blocker is a transaction found blocking a request, with the id it had
// when it was found under the stripe mutex.
type blocker struct {
	tx *txState
	id uint64
}

// Recycling bounds. A stripe keeps at most stripeFreeMax empty lock
// entries and a registry shard at most txFreeMax transaction states. An
// entry whose holder slice grew past stripeHoldersMax, or a state that
// held more than txHeldMax locks, is dropped rather than kept: slices and
// maps never shrink.
const (
	stripeFreeMax    = 16
	stripeHoldersMax = 8
	txFreeMax        = 32
	txHeldMax        = 64
)

// holder is one transaction holding a key in mode.
type holder struct {
	tx   *txState
	mode Mode
}

type lockState struct {
	holders []holder // one or two in the common case
	queue   []*request
}

// find returns the index of tx among ls's holders, or -1.
func (ls *lockState) find(tx *txState) int {
	for i := range ls.holders {
		if ls.holders[i].tx == tx {
			return i
		}
	}
	return -1
}

// grant records tx as holding mode (an upgrade replaces its mode).
func (ls *lockState) grant(tx *txState, mode Mode) {
	if i := ls.find(tx); i >= 0 {
		ls.holders[i].mode = mode
		return
	}
	ls.holders = append(ls.holders, holder{tx, mode})
}

// drop removes tx from ls's holders, reporting whether it held the key.
func (ls *lockState) drop(tx *txState) bool {
	i := ls.find(tx)
	if i < 0 {
		return false
	}
	last := len(ls.holders) - 1
	ls.holders[i] = ls.holders[last]
	ls.holders[last] = holder{}
	ls.holders = ls.holders[:last]
	return true
}

// compatible reports whether the current holders allow tx to hold mode:
// an upgrade needs tx to be the sole holder, any other request no
// conflicting holder besides tx itself. The caller holds ls's stripe
// mutex.
func (ls *lockState) compatible(tx *txState, mode Mode, upgrade bool) bool {
	if upgrade {
		return len(ls.holders) == 1 && ls.holders[0].tx == tx
	}
	for _, h := range ls.holders {
		if h.tx != tx && (mode == Exclusive || h.mode == Exclusive) {
			return false
		}
	}
	return true
}

// stripe is one hash partition of the lock table.
type stripe struct {
	mu    sync.Mutex
	locks map[string]*lockState
	free  []*lockState // emptied entries for reuse; at most stripeFreeMax
}

const txShardCount = 16

// txShard is one partition of the transaction registry.
type txShard struct {
	mu   sync.Mutex
	m    map[uint64]*txState
	free []*txState // released states for reuse; at most txFreeMax
}

// Manager is a lock manager. It is safe for concurrent use.
type Manager struct {
	policy  Policy
	timeout time.Duration
	seed    maphash.Seed
	stripes []stripe // len is a power of two
	txs     [txShardCount]txShard

	// detectMu serializes the blocking slow path: cycle detection
	// (Detect) and victim selection (WoundWait). Fast-path grants and
	// releases never touch it.
	detectMu sync.Mutex

	waits      atomic.Uint64
	deadlocks  atomic.Uint64
	wounds     atomic.Uint64
	timeouts   atomic.Uint64
	collisions atomic.Uint64

	// onBlock observes a blocked request when its wait begins, outside
	// every manager mutex; see SetBlockObserver.
	onBlock func(txID uint64, key string)
}

// Wait is what one Acquire spent blocked: the key's lock-table stripe,
// the transaction it was first queued behind (the blame edge for causal
// tracing; 0 if the conflict vanished before it was captured), and the
// time spent blocked. The zero Wait means the request did not block.
type Wait struct {
	Stripe  int
	Blocker uint64
	Dur     time.Duration
}

// Blocked reports whether the request waited.
func (w Wait) Blocked() bool { return w.Dur > 0 }

// NewManager creates a manager with the given policy and DefaultStripes
// lock-table stripes. timeout applies only to TimeoutPolicy (zero selects
// 50ms).
func NewManager(policy Policy, timeout time.Duration) *Manager {
	return NewManagerStriped(policy, timeout, 0)
}

// NewManagerStriped creates a manager with an explicit stripe count
// (rounded up to a power of two; 0 selects DefaultStripes, 1 reproduces
// the historical single-mutex lock table).
func NewManagerStriped(policy Policy, timeout time.Duration, stripes int) *Manager {
	if timeout <= 0 {
		timeout = 50 * time.Millisecond
	}
	if stripes <= 0 {
		stripes = DefaultStripes
	}
	n := 1
	for n < stripes {
		n <<= 1
	}
	m := &Manager{
		policy:  policy,
		timeout: timeout,
		seed:    maphash.MakeSeed(),
		stripes: make([]stripe, n),
	}
	for i := range m.stripes {
		m.stripes[i].locks = make(map[string]*lockState)
	}
	for i := range m.txs {
		m.txs[i].m = make(map[uint64]*txState)
	}
	return m
}

func (m *Manager) stripeIdx(key string) int {
	return int(maphash.String(m.seed, key) & uint64(len(m.stripes)-1))
}

func (m *Manager) stripeFor(key string) *stripe {
	return &m.stripes[m.stripeIdx(key)]
}

// StripeOf reports which stripe a key hashes to — the attribution hook
// for the hotspot profiler's per-stripe contention heatmap.
func (m *Manager) StripeOf(key string) int { return m.stripeIdx(key) }

// lockStripe takes s.mu, counting the acquisition as a collision when
// another goroutine already holds it (the stripe contention signal
// surfaced in obs snapshots).
func (m *Manager) lockStripe(s *stripe) {
	if s.mu.TryLock() {
		return
	}
	m.collisions.Add(1)
	s.mu.Lock()
}

// lockTx returns txID's state with its mutex held, or nil if txID is
// not registered.
func (m *Manager) lockTx(txID uint64) *txState {
	sh := &m.txs[txID%txShardCount]
	sh.mu.Lock()
	tx := sh.m[txID]
	sh.mu.Unlock()
	if tx == nil {
		return nil
	}
	tx.mu.Lock()
	if tx.id != txID {
		// Released and recycled since the lookup.
		tx.mu.Unlock()
		return nil
	}
	return tx
}

// Begin registers a transaction. age must be unique and monotonically
// increasing across Begin calls (the engine uses its begin sequence);
// WoundWait uses it as the seniority order. The state is taken from the
// shard's free list when one is there.
func (m *Manager) Begin(txID, age uint64) {
	sh := &m.txs[txID%txShardCount]
	sh.mu.Lock()
	if _, ok := sh.m[txID]; ok {
		sh.mu.Unlock()
		panic(fmt.Sprintf("lock: duplicate Begin(%d)", txID))
	}
	var tx *txState
	if n := len(sh.free); n > 0 {
		tx = sh.free[n-1]
		sh.free[n-1] = nil
		sh.free = sh.free[:n-1]
	} else {
		tx = &txState{held: make(map[string]Mode)}
	}
	tx.mu.Lock()
	tx.id, tx.age = txID, age
	// A wound can still land on a released state before its reuse.
	tx.wounded, tx.woundKey = false, ""
	tx.mu.Unlock()
	sh.m[txID] = tx
	sh.mu.Unlock()
}

// SetBlockObserver installs fn, called once per request at the moment it
// begins to wait (its entry is queued and visible to other transactions).
// It runs on the requester's goroutine outside every mutex. The
// deterministic schedule-exploration harness (internal/schedtest) uses
// it to learn that a step has parked.
func (m *Manager) SetBlockObserver(fn func(txID uint64, key string)) {
	m.onBlock = fn
}

// Acquire blocks until the lock is granted or the transaction becomes a
// deadlock/wound/timeout victim. Re-acquiring a held lock (same or weaker
// mode) is a no-op; Shared→Exclusive upgrades are supported and take
// priority over queued requests. The returned Wait describes the time
// the request spent blocked — granted or failed — and is zero when it
// did not block (a deadlock victim fails before it waits). The caller
// records it on its own goroutine, after every manager mutex is
// released, so recording a wait can never stall lock traffic.
func (m *Manager) Acquire(txID uint64, key string, mode Mode) (Wait, error) {
	tx := m.lockTx(txID)
	if tx == nil {
		return Wait{}, ErrUnknown
	}
	if tx.wounded {
		tx.mu.Unlock()
		return Wait{}, ErrWounded
	}
	held, hasHeld := tx.held[key]
	tx.mu.Unlock()
	if hasHeld && (held == Exclusive || mode == Shared) {
		return Wait{}, nil
	}
	upgrade := hasHeld // held Shared, want Exclusive

	s := m.stripeFor(key)
	m.lockStripe(s)
	ls := s.locks[key]
	if ls == nil {
		if n := len(s.free); n > 0 {
			ls = s.free[n-1]
			s.free[n-1] = nil
			s.free = s.free[:n-1]
		} else {
			ls = &lockState{}
		}
		s.locks[key] = ls
	}

	// FIFO fairness: a fresh request must queue behind existing waiters;
	// an upgrade takes priority over them.
	if (upgrade || len(ls.queue) == 0) && ls.compatible(tx, mode, upgrade) {
		ls.grant(tx, mode)
		tx.mu.Lock()
		tx.held[key] = mode
		tx.mu.Unlock()
		s.mu.Unlock()
		return Wait{}, nil
	}

	// Capture the blame edge while the stripe mutex still pins the
	// conflict: the first conflicting holder, or failing that the first
	// conflicting request queued ahead. By the time the wait ends the
	// blocker may be long gone, so this is the only moment the causal
	// edge is observable.
	var blame uint64
	for _, h := range ls.holders {
		if h.tx != tx && (upgrade || mode == Exclusive || h.mode == Exclusive) {
			blame = h.tx.id
			break
		}
	}
	if blame == 0 && !upgrade {
		for _, r := range ls.queue {
			if r.tx != tx && (mode == Exclusive || r.mode == Exclusive) {
				blame = r.tx.id
				break
			}
		}
	}

	req := &request{tx: tx, key: key, mode: mode, upgrade: upgrade, ready: make(chan error, 1)}
	tx.mu.Lock()
	if tx.wounded {
		// Wounded between the entry check and publishing the wait: the
		// wounder saw no waiting request to fail, so fail it here.
		tx.mu.Unlock()
		s.mu.Unlock()
		return Wait{}, ErrWounded
	}
	if upgrade {
		ls.queue = append([]*request{req}, ls.queue...)
	} else {
		ls.queue = append(ls.queue, req)
	}
	tx.waiting = req
	tx.mu.Unlock()
	s.mu.Unlock()
	m.waits.Add(1)
	if m.onBlock != nil {
		m.onBlock(txID, key)
	}

	switch m.policy {
	case Detect:
		m.detectMu.Lock()
		cycle := m.cycleFrom(blocker{tx, txID})
		var victim bool
		if cycle {
			victim = m.cancelRequest(req)
		}
		m.detectMu.Unlock()
		if victim {
			m.deadlocks.Add(1)
			return Wait{}, ErrDeadlock
		}
		// If a cycle was seen but the request had already been resolved
		// (granted or wounded concurrently), the verdict is on the
		// channel; fall through and take it.
	case WoundWait:
		m.detectMu.Lock()
		m.woundYounger(req)
		m.detectMu.Unlock()
	}

	waitStart := time.Now()
	err := m.await(req)
	// At least 1ns, so a blocked request never reads as unblocked on a
	// coarse clock.
	return Wait{Stripe: m.stripeIdx(key), Blocker: blame, Dur: max(time.Since(waitStart), 1)}, err
}

// await blocks on a queued request until it is granted or fails under
// the manager's policy.
func (m *Manager) await(req *request) error {
	if m.policy == TimeoutPolicy {
		timer := time.NewTimer(m.timeout)
		defer timer.Stop()
		select {
		case err := <-req.ready:
			return err
		case <-timer.C:
			if m.cancelRequest(req) {
				m.timeouts.Add(1)
				return ErrTimeout
			}
			// A grant (or wound) raced the timer; its verdict is queued.
			return <-req.ready
		}
	}
	return <-req.ready
}

// cancelRequest removes req from its key's queue if it is still there,
// reporting whether it was. Whoever removes a request owns its verdict;
// a false return means some other path (grant, wound, release) already
// resolved it and has sent — or is about to send — on req.ready.
func (m *Manager) cancelRequest(req *request) bool {
	s := m.stripeFor(req.key)
	m.lockStripe(s)
	ls := s.locks[req.key]
	if ls == nil || !m.removeRequest(s, ls, req) {
		s.mu.Unlock()
		return false
	}
	req.tx.mu.Lock()
	if req.tx.waiting == req {
		req.tx.waiting = nil
	}
	req.tx.mu.Unlock()
	s.mu.Unlock()
	return true
}

// ReleaseAll releases every lock held by txID, grants any now-compatible
// waiters, and forgets the transaction. It is the 2PL "shrinking phase"
// done all at once (strict 2PL), and also the abort path for victims.
// The emptied state goes back to the shard's free list.
func (m *Manager) ReleaseAll(txID uint64) {
	sh := &m.txs[txID%txShardCount]
	sh.mu.Lock()
	tx := sh.m[txID]
	delete(sh.m, txID)
	sh.mu.Unlock()
	if tx == nil {
		return
	}

	tx.mu.Lock()
	w := tx.waiting
	tx.waiting = nil
	keys := tx.keys[:0]
	for key := range tx.held {
		keys = append(keys, key)
	}
	tx.mu.Unlock()

	if w != nil {
		// Defensive: a transaction should never release while blocked,
		// but if the engine aborts it from another goroutine, clean up.
		s := m.stripeFor(w.key)
		m.lockStripe(s)
		if ls := s.locks[w.key]; ls != nil && m.removeRequest(s, ls, w) {
			w.ready <- ErrWounded
		}
		s.mu.Unlock()
	}
	for _, key := range keys {
		s := m.stripeFor(key)
		m.lockStripe(s)
		if ls := s.locks[key]; ls != nil && ls.drop(tx) {
			m.grantWaiters(s, key, ls)
		}
		s.mu.Unlock()
	}

	// Nothing refers to tx any more except stale blockers, which check
	// its id before acting; it can be reused.
	if len(keys) > txHeldMax {
		return
	}
	clear(keys)
	tx.mu.Lock()
	clear(tx.held)
	tx.keys = keys[:0]
	tx.mu.Unlock()
	sh.mu.Lock()
	if len(sh.free) < txFreeMax {
		sh.free = append(sh.free, tx)
	}
	sh.mu.Unlock()
}

// HeldCount returns how many locks txID currently holds.
func (m *Manager) HeldCount(txID uint64) int {
	tx := m.lockTx(txID)
	if tx == nil {
		return 0
	}
	defer tx.mu.Unlock()
	return len(tx.held)
}

// Wounded reports whether txID has been wounded and must abort, and the
// key the older transaction requested when it wounded txID.
func (m *Manager) Wounded(txID uint64) (key string, wounded bool) {
	tx := m.lockTx(txID)
	if tx == nil {
		return "", false
	}
	defer tx.mu.Unlock()
	return tx.woundKey, tx.wounded
}

// Waits returns the number of requests that ever blocked.
func (m *Manager) Waits() uint64 { return m.waits.Load() }

// Deadlocks returns the number of deadlock victims.
func (m *Manager) Deadlocks() uint64 { return m.deadlocks.Load() }

// Wounds returns the number of wounded transactions.
func (m *Manager) Wounds() uint64 { return m.wounds.Load() }

// Timeouts returns the number of timed-out requests.
func (m *Manager) Timeouts() uint64 { return m.timeouts.Load() }

// Stripes returns the number of lock-table stripes.
func (m *Manager) Stripes() int { return len(m.stripes) }

// StripeCollisions returns how many stripe-mutex acquisitions found the
// stripe already locked — the striping contention signal: near zero means
// the stripe count is ample for the workload.
func (m *Manager) StripeCollisions() uint64 { return m.collisions.Load() }

// WaitEdge is one waits-for edge of the lock table: From is blocked on
// Key (requesting Mode) by To, which holds or is queued ahead with a
// conflicting mode.
type WaitEdge struct {
	From uint64 `json:"from"`
	To   uint64 `json:"to"`
	Key  string `json:"key"`
	Mode string `json:"mode"`
}

// WaitGraph is a point-in-time export of the waits-for relation, the
// structure cycle detection walks. Waiters counts transactions that were
// blocked when the graph was taken (an edgeless waiter is possible: its
// blocker can release between the waiter scan and the edge scan).
type WaitGraph struct {
	TakenAtNS int64      `json:"taken_at_ns"`
	Waiters   int        `json:"waiters"`
	Edges     []WaitEdge `json:"edges,omitempty"`
}

// WaitGraph captures the current waits-for graph for postmortem export
// (the flight recorder's bundles). It serializes against the blocking
// slow path via detectMu — the same discipline as cycle detection — so
// the edges it reports were simultaneously true. Fast-path grants and
// releases are unaffected.
func (m *Manager) WaitGraph() WaitGraph {
	m.detectMu.Lock()
	defer m.detectMu.Unlock()
	g := WaitGraph{TakenAtNS: time.Now().UnixNano()}
	for i := range m.txs {
		sh := &m.txs[i]
		sh.mu.Lock()
		txs := make([]blocker, 0, len(sh.m))
		for id, tx := range sh.m {
			txs = append(txs, blocker{tx, id})
		}
		sh.mu.Unlock()
		for _, t := range txs {
			w := t.waiting()
			if w == nil {
				continue
			}
			g.Waiters++
			for _, b := range m.blockersFor(w) {
				g.Edges = append(g.Edges, WaitEdge{
					From: t.id, To: b.id, Key: w.key, Mode: w.mode.String(),
				})
			}
		}
	}
	sort.Slice(g.Edges, func(i, j int) bool {
		a, b := g.Edges[i], g.Edges[j]
		if a.From != b.From {
			return a.From < b.From
		}
		if a.Key != b.Key {
			return a.Key < b.Key
		}
		return a.To < b.To
	})
	return g
}

// grantWaiters grants queued requests from the front while possible, and
// removes the key's entry once nothing holds or waits on it, keeping it
// on the stripe's free list. The caller holds s.mu.
func (m *Manager) grantWaiters(s *stripe, key string, ls *lockState) {
	for len(ls.queue) > 0 {
		req := ls.queue[0]
		if !ls.compatible(req.tx, req.mode, req.upgrade) {
			break
		}
		ls.queue = ls.queue[1:]
		ls.grant(req.tx, req.mode)
		req.tx.mu.Lock()
		req.tx.held[key] = req.mode
		if req.tx.waiting == req {
			req.tx.waiting = nil
		}
		req.tx.mu.Unlock()
		req.ready <- nil
	}
	if len(ls.holders) == 0 && len(ls.queue) == 0 {
		delete(s.locks, key)
		if len(s.free) < stripeFreeMax && cap(ls.holders) <= stripeHoldersMax {
			ls.queue = nil
			s.free = append(s.free, ls)
		}
	}
}

// removeRequest unqueues req, reporting whether it was found; on success
// it also grants anything the removal unblocked. The caller holds s.mu.
func (m *Manager) removeRequest(s *stripe, ls *lockState, req *request) bool {
	for i, r := range ls.queue {
		if r == req {
			ls.queue = append(ls.queue[:i], ls.queue[i+1:]...)
			m.grantWaiters(s, req.key, ls)
			return true
		}
	}
	return false
}

// blockersFor returns the transactions req waits for: conflicting
// holders plus conflicting requests queued ahead of it, each with the id
// it has while the stripe mutex pins it. It briefly locks the key's
// stripe; the caller holds detectMu.
func (m *Manager) blockersFor(req *request) []blocker {
	s := m.stripeFor(req.key)
	m.lockStripe(s)
	defer s.mu.Unlock()
	ls := s.locks[req.key]
	if ls == nil {
		return nil
	}
	var out []blocker
	for _, h := range ls.holders {
		if h.tx != req.tx && (req.mode == Exclusive || h.mode == Exclusive) {
			out = append(out, blocker{h.tx, h.tx.id})
		}
	}
	for _, r := range ls.queue {
		if r == req {
			break
		}
		if r.tx != req.tx && (req.mode == Exclusive || r.mode == Exclusive) {
			out = append(out, blocker{r.tx, r.tx.id})
		}
	}
	return out
}

// waiting returns the request b's transaction is blocked on: nil if it
// is not blocked, or if its state was released or reused since b was
// captured (the transaction b named holds and waits for nothing any
// more).
func (b blocker) waiting() *request {
	b.tx.mu.Lock()
	defer b.tx.mu.Unlock()
	if b.tx.id != b.id {
		return nil
	}
	return b.tx.waiting
}

// edgesFrom returns the transactions b waits for: one step of the
// waits-for walk. The caller holds detectMu.
func (m *Manager) edgesFrom(b blocker) []blocker {
	if w := b.waiting(); w != nil {
		return m.blockersFor(w)
	}
	return nil
}

// cycleFrom runs a DFS over the waits-for relation starting at start,
// returning true if start is reachable from itself. The caller holds
// detectMu; stripes and transactions are locked one at a time along the
// walk (see the package comment for why this is sound).
func (m *Manager) cycleFrom(start blocker) bool {
	visited := map[uint64]bool{}
	var stack []blocker
	push := func(bs []blocker) {
		for _, b := range bs {
			if !visited[b.id] {
				visited[b.id] = true
				stack = append(stack, b)
			}
		}
	}
	push(m.edgesFrom(start))
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if b.id == start.id {
			return true
		}
		push(m.edgesFrom(b))
	}
	return false
}

// woundYounger wounds every conflicting transaction younger than the
// requester: holders keep running until they notice (next Acquire or an
// explicit Wounded check); blocked waiters are failed immediately. The
// caller holds detectMu.
func (m *Manager) woundYounger(req *request) {
	for _, b := range m.blockersFor(req) {
		m.wound(b, req.tx.age, req.key)
	}
}

// wound marks b wounded over key, if it is still the transaction it was
// captured as and is younger than age, and fails its blocked request, if
// any. The caller holds detectMu.
func (m *Manager) wound(b blocker, age uint64, key string) {
	t := b.tx
	t.mu.Lock()
	if t.id != b.id || t.age <= age || t.wounded {
		t.mu.Unlock()
		return
	}
	t.wounded, t.woundKey = true, key
	w := t.waiting
	t.mu.Unlock()
	m.wounds.Add(1)
	if w == nil {
		return
	}
	s := m.stripeFor(w.key)
	m.lockStripe(s)
	if ls := s.locks[w.key]; ls != nil && m.removeRequest(s, ls, w) {
		t.mu.Lock()
		if t.waiting == w {
			t.waiting = nil
		}
		t.mu.Unlock()
		w.ready <- ErrWounded
	}
	s.mu.Unlock()
}
