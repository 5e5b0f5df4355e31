package core

import (
	"errors"
	"fmt"
	"sync"

	"mvdb/internal/engine"
	"mvdb/internal/lock"
	"mvdb/internal/obs"
	"mvdb/internal/storage"
	"mvdb/internal/vc"
)

// twoPhaseTx is a read-write transaction under VC+2PL (paper Figure 4).
//
// During execution it behaves exactly like a single-version strict-2PL
// transaction: reads take shared locks and return the latest committed
// version; writes take exclusive locks and are buffered ("create y_j with
// version phi" — the version number is unknown until the lock-point).
//
// At end(T) — by which time every lock is held, so the lock-point has been
// passed — the transaction registers with version control, receives
// tn(T), installs its buffered writes as versions numbered tn(T), releases
// its locks, and finally calls VCcomplete. The version-control module
// therefore only ever sees transactions that can no longer block, which is
// why (Section 4.4) it is immune to deadlocks.
type twoPhaseTx struct {
	rwTx
	entry vc.Handle // ablation A1 only: registered at begin
}

type bufWrite struct {
	data      []byte
	tombstone bool
}

// rwTx is the state the three read-write transaction types share.
type rwTx struct {
	e    *Engine
	id   uint64
	tn   uint64 // assigned at commit; at begin under T/O
	done bool
	p    *probe // nil unless instrumented
	// buf is the write set: buffered writes under 2PL and OCC, the keys
	// holding a pending version under T/O. It comes from writeSets and
	// goes back once the transaction has finished (nil after).
	buf map[string]bufWrite
}

// maxPooledSet bounds the key maps kept for reuse: a map never shrinks,
// so one that grew past it is left to the collector.
const maxPooledSet = 64

// setPool recycles per-transaction key maps, cleared before reuse.
type setPool[V any] struct{ p sync.Pool }

func (s *setPool[V]) get() map[string]V {
	if m, ok := s.p.Get().(map[string]V); ok {
		return m
	}
	return make(map[string]V)
}

func (s *setPool[V]) put(m map[string]V) {
	if m == nil || len(m) > maxPooledSet {
		return
	}
	clear(m)
	s.p.Put(m)
}

var (
	writeSets setPool[bufWrite]
	readSets  setPool[uint64] // OCC read sets
)

func (e *Engine) newRWTx(id, tn uint64, proto obs.ProtoIdx) rwTx {
	return rwTx{e: e, id: id, tn: tn, p: e.newProbe(proto, id), buf: writeSets.get()}
}

// recycle gives the write set back to its pool. The transaction calls it
// once it is done and its locks are released, so a stale handle, which
// fails every call with ErrTxDone, never touches a reused map.
func (t *rwTx) recycle() {
	writeSets.put(t.buf)
	t.buf = nil
}

// ID implements engine.Tx.
func (t *rwTx) ID() uint64 { return t.id }

// Class implements engine.Tx.
func (t *rwTx) Class() engine.Class { return engine.ReadWrite }

// SN implements engine.Tx. Under T/O sn(T) = tn(T) from begin; a 2PL or
// OCC transaction has no snapshot position until it commits ("sn(T) =
// infinity for uniformity").
func (t *rwTx) SN() (uint64, bool) { return t.tn, t.tn != 0 }

func (e *Engine) beginTwoPhase(id uint64) *twoPhaseTx {
	e.locks.Begin(id, e.ages.Add(1))
	t := &twoPhaseTx{rwTx: e.newRWTx(id, 0, obs.Proto2PL)}
	if e.opts.UnsafeEarlyRegister2PL {
		t.entry = e.vc.Register() // A1: serial order NOT yet fixed — wrong on purpose
	}
	e.began(id, engine.ReadWrite, 0)
	return t
}

// Get implements engine.Tx: r-lock(x), then read the latest version
// (sn(T) = infinity in Figure 4).
func (t *twoPhaseTx) Get(key string) ([]byte, error) {
	if t.done {
		return nil, engine.ErrTxDone
	}
	if w, ok := t.buf[key]; ok {
		if w.tombstone {
			return nil, engine.ErrNotFound
		}
		return w.data, nil
	}
	if err := t.acquire(key, lock.Shared); err != nil {
		return nil, err
	}
	// An absent key reads the bootstrap state: the shared lock still
	// guards against a concurrent creator.
	var v storage.Version
	ok := false
	if o := t.e.store.Get(key); o != nil {
		v, ok = o.LatestCommitted()
	}
	if !ok {
		t.e.read(t.id, key, 0)
		return nil, engine.ErrNotFound
	}
	t.e.read(t.id, key, v.TN)
	if v.Tombstone {
		return nil, engine.ErrNotFound
	}
	return v.Data, nil
}

// Put implements engine.Tx: w-lock(y), then buffer the write; the version
// number is assigned at commit ("create y_j with version phi").
func (t *twoPhaseTx) Put(key string, value []byte) error {
	return t.put(key, bufWrite{data: value})
}

// Delete implements engine.Tx: an exclusive lock plus a buffered
// tombstone.
func (t *twoPhaseTx) Delete(key string) error {
	return t.put(key, bufWrite{tombstone: true})
}

func (t *twoPhaseTx) put(key string, w bufWrite) error {
	if t.done {
		return engine.ErrTxDone
	}
	if err := t.acquire(key, lock.Exclusive); err != nil {
		return err
	}
	t.e.write(key)
	t.buf[key] = w
	return nil
}

// acquire maps lock-manager failures to engine errors and aborts the
// transaction on failure (the victim must release everything it holds).
func (t *twoPhaseTx) acquire(key string, mode lock.Mode) error {
	w, err := t.e.locks.Acquire(t.id, key, mode)
	t.e.acquired(t.id, t.p, key, w, err == nil)
	if err == nil {
		return nil
	}
	var mapped error
	var cause obs.AbortCause
	switch {
	case errors.Is(err, lock.ErrDeadlock):
		mapped, cause = engine.ErrDeadlock, obs.AbortDeadlock
	case errors.Is(err, lock.ErrWounded):
		mapped, cause = engine.ErrWounded, obs.AbortWounded
		// Charge the key the wounder wanted, not the one that noticed.
		if k, ok := t.e.locks.Wounded(t.id); ok {
			key = k
		}
	case errors.Is(err, lock.ErrTimeout):
		// Counted as its own cause; still surfaced as ErrDeadlock because
		// a timeout is the timeout policy's deadlock presumption.
		mapped = fmt.Errorf("%w (lock wait timeout)", engine.ErrDeadlock)
		cause = obs.AbortTimeout
	default:
		mapped, cause = engine.ErrConflict, obs.AbortConflict
	}
	t.abort(cause, key)
	return mapped
}

// Commit implements engine.Tx, following Figure 4's end(T) sequence:
// VCregister; perform database updates with version number tn(T); clear
// locks; VCcomplete.
func (t *twoPhaseTx) Commit() error {
	if t.done {
		return engine.ErrTxDone
	}
	// Under wound-wait a running transaction may have been wounded while
	// it held locks; it must not commit.
	if key, wounded := t.e.locks.Wounded(t.id); wounded {
		t.abort(obs.AbortWounded, key)
		return engine.ErrWounded
	}
	t.done = true

	entry := t.entry
	if entry == nil {
		entry = t.e.vc.Register() // the lock-point has been passed
	}
	t.tn = entry.TN()
	t.p.setTN(t.tn)

	if err := t.e.appendWAL(t.p, t.tn, t.buf); err != nil {
		t.e.vc.Discard(entry)
		t.e.releaseLocks(t.id, t.p, t.buf)
		t.recycle()
		t.e.abort(t.id, t.p, obs.AbortLog, "")
		return fmt.Errorf("core: commit log: %w", err)
	}
	t.e.install(t.id, t.p, t.tn, t.buf, false)
	t.e.committed(t.id, t.p, t.tn, engine.ReadWrite)
	t.e.releaseLocks(t.id, t.p, t.buf)
	t.recycle()
	t.e.complete(entry, t.p)
	return nil
}

// Abort implements engine.Tx.
func (t *twoPhaseTx) Abort() { t.abort(obs.AbortUser, "") }

func (t *twoPhaseTx) abort(cause obs.AbortCause, key string) {
	if t.done {
		return
	}
	t.done = true
	t.e.releaseLocks(t.id, t.p, t.buf)
	t.recycle()
	if t.entry != nil {
		t.e.vc.Discard(t.entry)
	}
	t.e.abort(t.id, t.p, cause, key)
}
