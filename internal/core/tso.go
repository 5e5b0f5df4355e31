package core

import (
	"errors"
	"fmt"

	"mvdb/internal/engine"
	"mvdb/internal/obs"
	"mvdb/internal/storage"
	"mvdb/internal/vc"
)

// tsoTx is a read-write transaction under VC+T/O (paper Figure 3).
//
// Timestamp ordering fixes the serial order a priori, so begin(T)
// registers with version control immediately and sn(T) = tn(T). Reads
// raise r-ts and may wait for older pending writes; writes are rejected
// when a younger transaction has already read or written the object
// (abort + VCdiscard), and otherwise install a pending version that
// becomes committed at end(T), followed by VCcomplete.
type tsoTx struct {
	rwTx
	entry vc.Handle
}

func (e *Engine) beginTimestamp(id uint64) *tsoTx {
	entry := e.vc.Register()
	t := &tsoTx{rwTx: e.newRWTx(id, entry.TN(), obs.ProtoTO), entry: entry}
	t.p.setTN(t.tn) // the serial order is fixed at begin
	e.began(id, engine.ReadWrite, 0)
	return t
}

// Get implements engine.Tx per Figure 3's read action: raise r-ts(x),
// then return the version with the largest number <= sn(T), possibly
// delayed by pending writes of older transactions. With phase timing
// on the whole read — including the object rule's wait inside TORead —
// is attributed to the T/O read phase.
func (t *tsoTx) Get(key string) ([]byte, error) {
	start := t.p.begin(obs.PhaseRead)
	v, err := t.get(key)
	t.p.end(obs.PhaseRead, start)
	return v, err
}

func (t *tsoTx) get(key string) ([]byte, error) {
	if t.done {
		return nil, engine.ErrTxDone
	}
	var v storage.Version
	ok := false
	if o := t.e.store.Get(key); o != nil {
		v, ok = o.TORead(t.tn)
	}
	if !ok {
		t.e.read(t.id, key, 0)
		return nil, engine.ErrNotFound
	}
	// A read of our own pending version is not a read of the history.
	if _, own := t.buf[key]; !(own && v.TN == t.tn) {
		t.e.read(t.id, key, v.TN)
	}
	if v.Tombstone {
		return nil, engine.ErrNotFound
	}
	return v.Data, nil
}

// Put implements engine.Tx per Figure 3's write action: abort if a
// younger transaction already read or overwrote the object, otherwise
// create a pending version numbered tn(T).
func (t *tsoTx) Put(key string, value []byte) error {
	return t.write(key, bufWrite{data: value})
}

// Delete implements engine.Tx (a tombstone write).
func (t *tsoTx) Delete(key string) error {
	return t.write(key, bufWrite{tombstone: true})
}

func (t *tsoTx) write(key string, w bufWrite) error {
	if t.done {
		return engine.ErrTxDone
	}
	o := t.e.store.GetOrCreate(key)
	if err := o.TOWrite(t.tn, w.data, w.tombstone); err != nil {
		if errors.Is(err, storage.ErrConflictRO) {
			// Structurally unreachable in this engine: read-only
			// transactions never raise r-ts here. Counted anyway so the
			// claim is measured, not assumed (experiment E2).
			t.e.stats.RWAbortsByRO.Inc()
		}
		t.abort(obs.AbortTOWrite, key)
		return engine.ErrConflict
	}
	t.e.write(key)
	t.buf[key] = w
	return nil
}

// Commit implements engine.Tx: perform the database updates (promote
// pending versions), then VCcomplete.
func (t *tsoTx) Commit() error {
	if t.done {
		return engine.ErrTxDone
	}
	if err := t.e.appendWAL(t.p, t.tn, t.buf); err != nil {
		t.abort(obs.AbortLog, "")
		return fmt.Errorf("core: commit log: %w", err)
	}
	t.done = true
	t.e.install(t.id, t.p, t.tn, t.buf, true)
	t.recycle()
	t.e.committed(t.id, t.p, t.tn, engine.ReadWrite)
	t.e.complete(t.entry, t.p)
	return nil
}

// Abort implements engine.Tx: destroy pending versions and VCdiscard.
func (t *tsoTx) Abort() { t.abort(obs.AbortUser, "") }

func (t *tsoTx) abort(cause obs.AbortCause, key string) {
	if t.done {
		return
	}
	t.done = true
	for k := range t.buf {
		t.e.store.GetOrCreate(k).ResolvePending(t.tn, false)
	}
	t.recycle()
	t.e.vc.Discard(t.entry)
	t.e.abort(t.id, t.p, cause, key)
}
