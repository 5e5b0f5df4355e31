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
	rwTx
	readSet map[string]uint64 // key -> version TN observed; from readSets
}

func (e *Engine) beginOptimistic(id uint64) *occTx {
	t := &occTx{rwTx: e.newRWTx(id, 0, obs.ProtoOCC), readSet: readSets.get()}
	e.began(id, engine.ReadWrite, 0)
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
		t.abort(obs.AbortOCCRead, key)
		return nil, engine.ErrConflict
	}
	t.readSet[key] = v.TN
	t.e.read(t.id, key, v.TN)
	if v.Tombstone {
		return nil, engine.ErrNotFound
	}
	return v.Data, nil
}

// Put implements engine.Tx: buffer the write until validation.
func (t *occTx) Put(key string, value []byte) error {
	return t.put(key, bufWrite{data: value})
}

// Delete implements engine.Tx: buffer a tombstone.
func (t *occTx) Delete(key string) error {
	return t.put(key, bufWrite{tombstone: true})
}

func (t *occTx) put(key string, w bufWrite) error {
	if t.done {
		return engine.ErrTxDone
	}
	t.e.write(key)
	t.buf[key] = w
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
			t.recycle()
			e.abort(t.id, t.p, obs.AbortOCCValidate, key)
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
		t.recycle()
		e.abort(t.id, t.p, obs.AbortLog, "")
		return fmt.Errorf("core: commit log: %w", err)
	}
	e.install(t.id, t.p, t.tn, t.buf, false)
	e.valMu.Unlock()
	t.recycle()

	e.committed(t.id, t.p, t.tn, engine.ReadWrite)
	e.complete(entry, t.p)
	return nil
}

// Abort implements engine.Tx. An optimistic transaction holds nothing, so
// abort is pure bookkeeping.
func (t *occTx) Abort() { t.abort(obs.AbortUser, "") }

func (t *occTx) abort(cause obs.AbortCause, key string) {
	if t.done {
		return
	}
	t.done = true
	t.recycle()
	t.e.abort(t.id, t.p, cause, key)
}

// recycle gives the write and read sets back to their pools.
func (t *occTx) recycle() {
	t.rwTx.recycle()
	readSets.put(t.readSet)
	t.readSet = nil
}
