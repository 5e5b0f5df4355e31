package core

import (
	"fmt"

	"mvdb/internal/engine"
	"mvdb/internal/obs"
	"mvdb/internal/storage"
)

// occTx is a read-write transaction under VC+OCC, the integration the
// paper attributes to the authors' earlier multiversion optimistic
// protocol (Section 4: "appears in [1, 2] and, hence, is not presented").
//
// Read phase: reads observe the latest committed version and record its
// number; writes are buffered locally. Validation (backward, serial): in
// a critical section the engine checks that every version read is still
// the latest — i.e. no transaction that committed after our reads wrote
// our read set — then registers with version control (the validation
// order IS the serial order, so this is the lock-point analogue), installs
// the write set with the assigned tn, and leaves the critical section.
// VCcomplete runs after the updates are in place, as in Figures 3 and 4.
type occTx struct {
	e       *Engine
	id      uint64
	readSet map[string]uint64 // key -> version TN observed
	buf     map[string]bufWrite
	done    bool
	tn      uint64
	p       *probe // nil unless instrumented
}

func (e *Engine) beginOptimistic(id uint64) *occTx {
	t := &occTx{e: e, id: id, readSet: make(map[string]uint64), buf: make(map[string]bufWrite), p: e.newProbe(obs.ProtoOCC, id)}
	e.rec.RecordBegin(id, engine.ReadWrite)
	return t
}

// Get implements engine.Tx: optimistic read of the latest committed
// version, with no synchronization.
func (t *occTx) Get(key string) ([]byte, error) {
	start := t.p.begin(obs.PhaseRead)
	v, err := t.get(key)
	t.p.end(obs.PhaseRead, start)
	return v, err
}

func (t *occTx) get(key string) ([]byte, error) {
	if t.done {
		return nil, engine.ErrTxDone
	}
	if w, ok := t.buf[key]; ok {
		if w.tombstone {
			return nil, engine.ErrNotFound
		}
		return w.data, nil
	}
	var v storage.Version
	ok := false
	if o := t.e.store.Get(key); o != nil {
		v, ok = o.LatestCommitted()
	}
	if !ok {
		v = storage.Version{TN: 0, Tombstone: true}
	}
	if prev, seen := t.readSet[key]; seen && prev != v.TN {
		// The object moved under us between two reads; the transaction
		// can no longer validate, so fail fast.
		t.e.stats.AbortsConflict.Inc()
		t.e.hot.RecordConflict("occ-read", key)
		t.abortInternal()
		return nil, engine.ErrConflict
	}
	t.e.hot.TouchRead(key)
	t.readSet[key] = v.TN
	t.e.rec.RecordRead(t.id, key, v.TN)
	if v.Tombstone {
		return nil, engine.ErrNotFound
	}
	return v.Data, nil
}

// Put implements engine.Tx: buffer the write until validation.
func (t *occTx) Put(key string, value []byte) error {
	if t.done {
		return engine.ErrTxDone
	}
	t.e.hot.TouchWrite(key)
	t.buf[key] = bufWrite{data: value}
	return nil
}

// Delete implements engine.Tx: buffer a tombstone.
func (t *occTx) Delete(key string) error {
	if t.done {
		return engine.ErrTxDone
	}
	t.e.hot.TouchWrite(key)
	t.buf[key] = bufWrite{tombstone: true}
	return nil
}

// Commit implements engine.Tx: validate, register, install, complete.
func (t *occTx) Commit() error {
	if t.done {
		return engine.ErrTxDone
	}
	t.done = true

	e := t.e
	// The validate span covers entering the critical section (waiting
	// out other validators), the read-set check, and registration — the
	// serial-order-fixing stretch that Larson et al. identify as OCC's
	// throughput ceiling.
	start := t.p.begin(obs.PhaseValidate)
	e.valMu.Lock()
	for key, seenTN := range t.readSet {
		cur := uint64(0)
		if o := e.store.Get(key); o != nil {
			cur = o.LatestTN()
		}
		if cur != seenTN {
			e.valMu.Unlock()
			t.p.end(obs.PhaseValidate, start)
			e.hot.RecordConflict("occ-validate", key)
			e.stats.AbortsConflict.Inc()
			e.rec.RecordAbort(t.id)
			t.p.finishAbort()
			return engine.ErrConflict
		}
	}
	entry := e.vc.Register()
	t.tn = entry.TN()
	t.p.setTN(t.tn)
	t.p.end(obs.PhaseValidate, start)
	if err := e.appendWAL(t.p, t.tn, t.buf); err != nil {
		e.vc.Discard(entry)
		e.valMu.Unlock()
		e.rec.RecordAbort(t.id)
		t.p.finishAbort()
		return fmt.Errorf("core: commit log: %w", err)
	}
	start = t.p.begin(obs.PhaseInstall)
	for key, w := range t.buf {
		o := e.store.GetOrCreate(key)
		o.InstallCommitted(storage.Version{TN: t.tn, Data: w.data, Tombstone: w.tombstone})
		e.rec.RecordWrite(t.id, key, t.tn)
	}
	t.p.end(obs.PhaseInstall, start)
	e.valMu.Unlock()

	e.rec.RecordCommit(t.id, t.tn)
	e.complete(entry, t.p)
	e.stats.CommitsRW.Inc()
	return nil
}

// Abort implements engine.Tx. An optimistic transaction holds nothing, so
// abort is pure bookkeeping.
func (t *occTx) Abort() {
	if t.done {
		return
	}
	t.e.stats.AbortsUser.Inc()
	t.abortInternal()
}

func (t *occTx) abortInternal() {
	if t.done {
		return
	}
	t.done = true
	t.e.rec.RecordAbort(t.id)
	t.p.finishAbort()
}

// ID implements engine.Tx.
func (t *occTx) ID() uint64 { return t.id }

// Class implements engine.Tx.
func (t *occTx) Class() engine.Class { return engine.ReadWrite }

// SN implements engine.Tx: assigned at validation.
func (t *occTx) SN() (uint64, bool) {
	if t.tn != 0 {
		return t.tn, true
	}
	return 0, false
}
