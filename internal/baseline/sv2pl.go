package baseline

import (
	"errors"
	"sync/atomic"
	"time"

	"mvdb/internal/engine"
	"mvdb/internal/lock"
	"mvdb/internal/storage"
)

// SV2PL is single-version strict two-phase locking: the non-multiversion
// baseline. Read-only transactions are ordinary transactions that take
// shared locks, so they block behind writers, writers block behind them,
// and they participate in deadlocks — everything Section 1 of the paper
// says multiversioning exists to avoid.
//
// The implementation reuses the multiversion store but each read returns
// the latest committed version and the object's history is pruned on
// overwrite, so at most one version is live per key.
type SV2PL struct {
	store *storage.Store
	locks *lock.Manager
	tnc   atomic.Uint64
	ids   atomic.Uint64
	ages  atomic.Uint64
	rec   engine.Recorder

	commitsRO      atomic.Uint64
	commitsRW      atomic.Uint64
	abortsConflict atomic.Uint64
	abortsDeadlock atomic.Uint64
	abortsUser     atomic.Uint64
	roBlocked      atomic.Uint64
	closed         atomic.Bool
}

// NewSV2PL creates the single-version baseline engine.
func NewSV2PL(shards int, policy lock.Policy, timeout time.Duration, rec engine.Recorder) *SV2PL {
	if rec == nil {
		rec = engine.NopRecorder{}
	}
	return &SV2PL{
		store: storage.NewStore(shards),
		locks: lock.NewManager(policy, timeout),
		rec:   rec,
	}
}

// Name implements engine.Engine.
func (e *SV2PL) Name() string { return "sv2pl" }

// Store exposes the underlying store.
func (e *SV2PL) Store() *storage.Store { return e.store }

// Bootstrap loads initial data as version 0.
func (e *SV2PL) Bootstrap(data map[string][]byte) error {
	if e.ids.Load() != 0 {
		return errors.New("baseline: Bootstrap after transactions started")
	}
	for k, v := range data {
		e.store.Bootstrap(k, v)
	}
	return nil
}

// Begin implements engine.Engine. Both classes run the same locking
// protocol; the class only gates writes.
func (e *SV2PL) Begin(class engine.Class) (engine.Tx, error) {
	if e.closed.Load() {
		return nil, errors.New("baseline: engine closed")
	}
	id := e.ids.Add(1)
	e.locks.Begin(id, e.ages.Add(1))
	t := &svTx{e: e, id: id, class: class, buf: make(map[string]bufWrite)}
	e.rec.RecordBegin(id, class)
	return t, nil
}

// Stats implements engine.Engine.
func (e *SV2PL) Stats() map[string]int64 {
	return map[string]int64{
		"commits.ro":      int64(e.commitsRO.Load()),
		"commits.rw":      int64(e.commitsRW.Load()),
		"aborts.conflict": int64(e.abortsConflict.Load()),
		"aborts.deadlock": int64(e.abortsDeadlock.Load()),
		"aborts.user":     int64(e.abortsUser.Load()),
		"rw.aborts.by_ro": 0,
		"ro.blocked":      int64(e.roBlocked.Load()),
		"lock.waits":      int64(e.locks.Waits()),
		"lock.deadlocks":  int64(e.locks.Deadlocks()),
	}
}

// Close implements engine.Engine.
func (e *SV2PL) Close() error {
	e.closed.Store(true)
	return nil
}

type svTx struct {
	e     *SV2PL
	id    uint64
	class engine.Class
	buf   map[string]bufWrite
	done  bool
	tn    uint64
}

// Get implements engine.Tx: shared lock, then the (single) current value.
func (t *svTx) Get(key string) ([]byte, error) {
	if t.done {
		return nil, engine.ErrTxDone
	}
	if w, ok := t.buf[key]; ok {
		if w.tombstone {
			return nil, engine.ErrNotFound
		}
		return w.data, nil
	}
	waitsBefore := t.e.locks.Waits()
	if err := t.acquire(key, lock.Shared); err != nil {
		return nil, err
	}
	if t.class == engine.ReadOnly && t.e.locks.Waits() > waitsBefore {
		t.e.roBlocked.Add(1)
	}
	o := t.e.store.Get(key)
	if o == nil {
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

// Put implements engine.Tx.
func (t *svTx) Put(key string, value []byte) error {
	return t.write(key, bufWrite{data: value})
}

// Delete implements engine.Tx.
func (t *svTx) Delete(key string) error {
	return t.write(key, bufWrite{tombstone: true})
}

func (t *svTx) write(key string, w bufWrite) error {
	if t.done {
		return engine.ErrTxDone
	}
	if t.class == engine.ReadOnly {
		return engine.ErrReadOnly
	}
	if err := t.acquire(key, lock.Exclusive); err != nil {
		return err
	}
	t.buf[key] = w
	return nil
}

func (t *svTx) acquire(key string, mode lock.Mode) error {
	_, err := t.e.locks.Acquire(t.id, key, mode)
	if err == nil {
		return nil
	}
	var mapped error
	switch {
	case errors.Is(err, lock.ErrDeadlock), errors.Is(err, lock.ErrTimeout):
		t.e.abortsDeadlock.Add(1)
		mapped = engine.ErrDeadlock
	case errors.Is(err, lock.ErrWounded):
		t.e.abortsDeadlock.Add(1)
		mapped = engine.ErrWounded
	default:
		t.e.abortsConflict.Add(1)
		mapped = engine.ErrConflict
	}
	t.abortInternal()
	return mapped
}

// Commit implements engine.Tx: install in place (pruning old versions to
// keep the store single-version), then release locks.
func (t *svTx) Commit() error {
	if t.done {
		return engine.ErrTxDone
	}
	if _, wounded := t.e.locks.Wounded(t.id); wounded {
		t.e.abortsDeadlock.Add(1)
		t.abortInternal()
		return engine.ErrWounded
	}
	t.done = true
	if t.class == engine.ReadOnly || len(t.buf) == 0 {
		t.e.rec.RecordCommit(t.id, t.tn)
		t.e.locks.ReleaseAll(t.id)
		if t.class == engine.ReadOnly {
			t.e.commitsRO.Add(1)
		} else {
			t.e.commitsRW.Add(1)
		}
		return nil
	}
	t.tn = t.e.tnc.Add(1)
	for key, w := range t.buf {
		o := t.e.store.GetOrCreate(key)
		o.InstallCommitted(storage.Version{TN: t.tn, Data: w.data, Tombstone: w.tombstone})
		o.Prune(t.tn) // single-version: drop everything older
		t.e.rec.RecordWrite(t.id, key, t.tn)
	}
	t.e.rec.RecordCommit(t.id, t.tn)
	t.e.locks.ReleaseAll(t.id)
	t.e.commitsRW.Add(1)
	return nil
}

// Abort implements engine.Tx.
func (t *svTx) Abort() {
	if t.done {
		return
	}
	t.e.abortsUser.Add(1)
	t.abortInternal()
}

func (t *svTx) abortInternal() {
	if t.done {
		return
	}
	t.done = true
	t.e.locks.ReleaseAll(t.id)
	t.e.rec.RecordAbort(t.id)
}

// ID implements engine.Tx.
func (t *svTx) ID() uint64 { return t.id }

// Class implements engine.Tx.
func (t *svTx) Class() engine.Class { return t.class }

// SN implements engine.Tx.
func (t *svTx) SN() (uint64, bool) {
	if t.tn != 0 {
		return t.tn, true
	}
	return 0, false
}
