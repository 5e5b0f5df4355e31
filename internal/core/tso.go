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
	e       *Engine
	id      uint64
	entry   vc.Handle
	tn      uint64
	pending map[string]struct{} // keys holding our pending write
	writes  map[string]bufWrite // retained write set (commit log)
	done    bool
	p       *probe // nil unless instrumented
}

func (e *Engine) beginTimestamp(id uint64) *tsoTx {
	entry := e.vc.Register()
	t := &tsoTx{
		e:       e,
		id:      id,
		entry:   entry,
		tn:      entry.TN(),
		pending: make(map[string]struct{}),
		writes:  make(map[string]bufWrite),
		p:       e.newProbe(obs.ProtoTO, id),
	}
	t.p.setTN(t.tn) // the serial order is fixed at begin
	e.rec.RecordBegin(id, engine.ReadWrite)
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
	o := t.e.store.Get(key)
	if o == nil {
		t.e.rec.RecordRead(t.id, key, 0)
		return nil, engine.ErrNotFound
	}
	v, ok := o.TORead(t.tn)
	if !ok {
		t.e.rec.RecordRead(t.id, key, 0)
		return nil, engine.ErrNotFound
	}
	t.e.hot.TouchRead(key)
	if _, own := t.pending[key]; !(own && v.TN == t.tn) {
		t.e.rec.RecordRead(t.id, key, v.TN)
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
	return t.write(key, value, false)
}

// Delete implements engine.Tx (a tombstone write).
func (t *tsoTx) Delete(key string) error {
	return t.write(key, nil, true)
}

func (t *tsoTx) write(key string, value []byte, tombstone bool) error {
	if t.done {
		return engine.ErrTxDone
	}
	o := t.e.store.GetOrCreate(key)
	if err := o.TOWrite(t.tn, value, tombstone); err != nil {
		t.e.hot.RecordConflict("to-write", key)
		t.e.stats.AbortsConflict.Inc()
		if errors.Is(err, storage.ErrConflictRO) {
			// Structurally unreachable in this engine: read-only
			// transactions never raise r-ts here. Counted anyway so the
			// claim is measured, not assumed (experiment E2).
			t.e.stats.RWAbortsByRO.Inc()
		}
		t.abortInternal()
		return engine.ErrConflict
	}
	t.e.hot.TouchWrite(key)
	t.pending[key] = struct{}{}
	t.writes[key] = bufWrite{data: value, tombstone: tombstone}
	return nil
}

// Commit implements engine.Tx: perform the database updates (promote
// pending versions), then VCcomplete.
func (t *tsoTx) Commit() error {
	if t.done {
		return engine.ErrTxDone
	}
	if err := t.e.appendWAL(t.p, t.tn, t.writes); err != nil {
		t.abortInternal()
		return fmt.Errorf("core: commit log: %w", err)
	}
	t.done = true
	start := t.p.begin(obs.PhaseInstall)
	for key := range t.pending {
		t.e.store.GetOrCreate(key).ResolvePending(t.tn, true)
		t.e.rec.RecordWrite(t.id, key, t.tn)
	}
	t.p.end(obs.PhaseInstall, start)
	t.e.rec.RecordCommit(t.id, t.tn)
	t.e.complete(t.entry, t.p)
	t.e.stats.CommitsRW.Inc()
	return nil
}

// Abort implements engine.Tx: destroy pending versions and VCdiscard.
func (t *tsoTx) Abort() {
	if t.done {
		return
	}
	t.e.stats.AbortsUser.Inc()
	t.abortInternal()
}

func (t *tsoTx) abortInternal() {
	if t.done {
		return
	}
	t.done = true
	for key := range t.pending {
		t.e.store.GetOrCreate(key).ResolvePending(t.tn, false)
	}
	t.e.vc.Discard(t.entry)
	t.e.rec.RecordAbort(t.id)
	t.p.finishAbort()
}

// ID implements engine.Tx.
func (t *tsoTx) ID() uint64 { return t.id }

// Class implements engine.Tx.
func (t *tsoTx) Class() engine.Class { return engine.ReadWrite }

// SN implements engine.Tx: sn(T) = tn(T) under timestamp ordering.
func (t *tsoTx) SN() (uint64, bool) { return t.tn, true }
