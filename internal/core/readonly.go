package core

import (
	"mvdb/internal/engine"
	"mvdb/internal/obs"
	"mvdb/internal/storage"
)

// roTx is a read-only transaction (paper Figure 2). It is shared by all
// three engines: begin obtains sn(T) = VCstart(); every read returns the
// version with the largest number <= sn(T); end is a no-op. It never
// interacts with the concurrency control component, never blocks, and
// never aborts.
type roTx struct {
	e       *Engine
	id      uint64
	sn      uint64
	token   uint64 // roRegistry token (0 = untracked)
	done    bool
	tracked bool
	p       *probe // nil unless instrumented
}

// beginReadOnly starts read-only transaction id. A zero pinSN takes the
// snapshot from VCstart; a tracked one is taken inside the GC registry's
// critical section (roRegistry.add), so no collection pass can compute
// its watermark between the two and prune a version the snapshot needs.
func (e *Engine) beginReadOnly(id, pinSN uint64, p *probe) *roTx {
	if pinSN > 0 {
		// Pinned snapshot (BeginReadOnlyAt): read exactly at position
		// pinSN — time travel into history, or read-your-writes when
		// pinSN is a just-committed transaction's number. WaitVisible
		// already ran in BeginReadOnlyAt; re-check to keep the guarantee
		// local rather than racy.
		e.vc.WaitVisible(pinSN)
	}
	t := &roTx{e: e, id: id, p: p}
	sn := pinSN
	if e.opts.TrackReadOnly {
		t.token, sn = e.roActive.add(e.vc, pinSN)
		t.tracked = true
	} else if sn == 0 {
		sn = e.vc.Start()
	}
	t.sn = sn
	e.began(id, engine.ReadOnly, sn)
	return t
}

// Get implements engine.Tx: "return x_j with largest version <= sn(T)".
// Every version at or below sn is committed (Transaction Visibility
// Property), so the read requires no synchronization whatsoever. The
// phase timer's RO read row exists to prove exactly that: its samples
// should sit at memory-access latency regardless of write load.
func (t *roTx) Get(key string) ([]byte, error) {
	start := t.p.begin(obs.PhaseRead)
	v, err := t.get(key)
	t.p.end(obs.PhaseRead, start)
	return v, err
}

func (t *roTx) get(key string) ([]byte, error) {
	if t.done {
		return nil, engine.ErrTxDone
	}
	o := t.e.store.Get(key)
	if o == nil {
		return nil, engine.ErrNotFound
	}
	v, ok := o.ReadVisible(t.sn)
	if !ok {
		// The key exists but was created after our snapshot: record a
		// read of the bootstrap state so the checker can order us before
		// the creator.
		t.e.read(t.id, key, 0)
		return nil, engine.ErrNotFound
	}
	t.e.read(t.id, key, v.TN)
	if v.Tombstone {
		return nil, engine.ErrNotFound
	}
	return v.Data, nil
}

// Put implements engine.Tx; read-only transactions cannot write.
func (t *roTx) Put(string, []byte) error {
	if t.done {
		return engine.ErrTxDone
	}
	return engine.ErrReadOnly
}

// Delete implements engine.Tx; read-only transactions cannot write.
func (t *roTx) Delete(string) error {
	if t.done {
		return engine.ErrTxDone
	}
	return engine.ErrReadOnly
}

// Commit implements engine.Tx. For a read-only transaction end(T) is
// empty (Figure 2): nothing to synchronize, nothing to make visible.
func (t *roTx) Commit() error {
	if t.done {
		return engine.ErrTxDone
	}
	t.finish()
	t.e.committed(t.id, t.p, t.sn, engine.ReadOnly)
	return nil
}

// Abort implements engine.Tx. Aborting a read-only transaction is
// indistinguishable from committing it, except for bookkeeping.
func (t *roTx) Abort() {
	if t.done {
		return
	}
	t.finish()
	t.e.abort(t.id, t.p, obs.AbortUser, "")
}

func (t *roTx) finish() {
	t.done = true
	if t.tracked {
		t.e.roActive.remove(t.token)
	}
}

// ID implements engine.Tx.
func (t *roTx) ID() uint64 { return t.id }

// Class implements engine.Tx.
func (t *roTx) Class() engine.Class { return engine.ReadOnly }

// SN implements engine.Tx.
func (t *roTx) SN() (uint64, bool) { return t.sn, true }

// Scan implements engine.Scanner: an ordered prefix scan over the
// transaction's snapshot; every version at or below sn is committed and
// immutable, so the scan needs no synchronization — it is the
// long-running analytical read the paper's introduction motivates,
// running concurrently with updates at zero interference.
func (t *roTx) Scan(prefix string, fn func(key string, value []byte) bool) error {
	if t.done {
		return engine.ErrTxDone
	}
	t.e.store.RangeOrdered(prefix, func(key string, o *storage.Object) bool {
		v, ok := o.ReadVisible(t.sn)
		if !ok {
			return true
		}
		t.e.read(t.id, key, v.TN)
		if v.Tombstone {
			return true
		}
		return fn(key, v.Data)
	})
	return nil
}
