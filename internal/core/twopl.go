package core

import (
	"errors"
	"fmt"
	"time"

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
	e     *Engine
	id    uint64
	entry vc.Handle // ablation A1 only: registered at begin
	buf   map[string]bufWrite
	done  bool
	tn    uint64 // assigned at commit
	p     *probe // nil unless instrumented
}

type bufWrite struct {
	data      []byte
	tombstone bool
}

func (e *Engine) beginTwoPhase(id uint64) *twoPhaseTx {
	e.locks.Begin(id, e.ages.Add(1))
	t := &twoPhaseTx{e: e, id: id, buf: make(map[string]bufWrite), p: e.newProbe(obs.Proto2PL, id)}
	e.live.put(id, t.p)
	if e.opts.UnsafeEarlyRegister2PL {
		t.entry = e.vc.Register() // A1: serial order NOT yet fixed — wrong on purpose
	}
	e.rec.RecordBegin(id, engine.ReadWrite)
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
	t.e.hot.TouchRead(key)
	o := t.e.store.Get(key)
	if o == nil {
		// Absent key: the shared lock still guards against a concurrent
		// creator, and the read is recorded against the bootstrap state.
		t.e.rec.RecordRead(t.id, key, 0)
		return nil, engine.ErrNotFound
	}
	v, ok := o.LatestCommitted()
	if !ok {
		t.e.rec.RecordRead(t.id, key, 0)
		return nil, engine.ErrNotFound
	}
	t.e.rec.RecordRead(t.id, key, v.TN)
	if v.Tombstone {
		return nil, engine.ErrNotFound
	}
	return v.Data, nil
}

// Put implements engine.Tx: w-lock(y), then buffer the write; the version
// number is assigned at commit ("create y_j with version phi").
func (t *twoPhaseTx) Put(key string, value []byte) error {
	if t.done {
		return engine.ErrTxDone
	}
	if err := t.acquire(key, lock.Exclusive); err != nil {
		return err
	}
	t.e.hot.TouchWrite(key)
	t.buf[key] = bufWrite{data: value}
	return nil
}

// Delete implements engine.Tx: an exclusive lock plus a buffered
// tombstone.
func (t *twoPhaseTx) Delete(key string) error {
	if t.done {
		return engine.ErrTxDone
	}
	if err := t.acquire(key, lock.Exclusive); err != nil {
		return err
	}
	t.e.hot.TouchWrite(key)
	t.buf[key] = bufWrite{tombstone: true}
	return nil
}

// acquire maps lock-manager failures to engine errors and aborts the
// transaction on failure (the victim must release everything it holds).
func (t *twoPhaseTx) acquire(key string, mode lock.Mode) error {
	err := t.e.locks.Acquire(t.id, key, mode)
	if err == nil {
		if t.e.hot != nil && t.p.lockedAt.IsZero() {
			t.p.lockedAt = time.Now()
		}
		return nil
	}
	var mapped error
	var cause string
	switch {
	case errors.Is(err, lock.ErrDeadlock):
		t.e.stats.AbortsDeadlock.Inc()
		mapped, cause = engine.ErrDeadlock, "deadlock"
	case errors.Is(err, lock.ErrWounded):
		t.e.stats.AbortsWounded.Inc()
		mapped, cause = engine.ErrWounded, "wounded"
		t.e.hot.RecordWound(t.e.locks.StripeOf(key))
	case errors.Is(err, lock.ErrTimeout):
		// Counted as its own cause; still surfaced as ErrDeadlock because
		// a timeout is the timeout policy's deadlock presumption.
		t.e.stats.AbortsTimeout.Inc()
		mapped = fmt.Errorf("%w (lock wait timeout)", engine.ErrDeadlock)
		cause = "timeout"
	default:
		t.e.stats.AbortsConflict.Inc()
		mapped, cause = engine.ErrConflict, "conflict"
	}
	t.e.hot.RecordConflict(cause, key)
	t.abortInternal()
	return mapped
}

// release drops every lock the transaction holds. With the profiler on
// it first charges the first-lock→release span as hold time to every
// buffered write key's stripe (read-lock-only keys are not retained by
// the transaction and are skipped).
func (t *twoPhaseTx) release() {
	if t.e.hot != nil && !t.p.lockedAt.IsZero() {
		held := time.Since(t.p.lockedAt)
		for key := range t.buf {
			t.e.hot.RecordHold(t.e.locks.StripeOf(key), held)
		}
	}
	t.e.locks.ReleaseAll(t.id)
	t.e.live.take(t.id)
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
	if t.e.locks.Wounded(t.id) {
		t.e.stats.AbortsWounded.Inc()
		t.abortInternal()
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
		t.release()
		t.e.rec.RecordAbort(t.id)
		t.p.finishAbort()
		return fmt.Errorf("core: commit log: %w", err)
	}
	start := t.p.begin(obs.PhaseInstall)
	for key, w := range t.buf {
		o := t.e.store.GetOrCreate(key)
		o.InstallCommitted(storage.Version{TN: t.tn, Data: w.data, Tombstone: w.tombstone})
		t.e.rec.RecordWrite(t.id, key, t.tn)
	}
	t.p.end(obs.PhaseInstall, start)
	t.e.rec.RecordCommit(t.id, t.tn)

	t.release()
	t.e.complete(entry, t.p)
	t.e.stats.CommitsRW.Inc()
	return nil
}

// Abort implements engine.Tx.
func (t *twoPhaseTx) Abort() {
	if t.done {
		return
	}
	t.e.stats.AbortsUser.Inc()
	t.abortInternal()
}

func (t *twoPhaseTx) abortInternal() {
	if t.done {
		return
	}
	t.done = true
	t.release()
	if t.entry != nil {
		t.e.vc.Discard(t.entry)
	}
	t.e.rec.RecordAbort(t.id)
	t.p.finishAbort()
}

// ID implements engine.Tx.
func (t *twoPhaseTx) ID() uint64 { return t.id }

// Class implements engine.Tx.
func (t *twoPhaseTx) Class() engine.Class { return engine.ReadWrite }

// SN implements engine.Tx. A 2PL read-write transaction has no snapshot
// position until it commits ("sn(T) = infinity for uniformity").
func (t *twoPhaseTx) SN() (uint64, bool) {
	if t.tn != 0 {
		return t.tn, true
	}
	return 0, false
}
