package core

import (
	"time"

	"mvdb/internal/engine"
	"mvdb/internal/lock"
	"mvdb/internal/obs"
	"mvdb/internal/storage"
)

// The per-event hooks. A transaction type reports each event of its
// life with one call to one of these methods, and only these methods
// feed the history recorder (e.rec, the one fan-out to the offline
// checkers, the auditor and the event ring), the hotspot profiler and
// the begin/commit/abort counters. The transaction types keep the
// protocol; the bookkeeping lives here once. With every instrument off
// each hook is a counter add, a nil test, and a call to the no-op
// recorder.

// began reports a begin. sn is a read-only transaction's snapshot
// position; read-write transactions pass 0.
func (e *Engine) began(id uint64, class engine.Class, sn uint64) {
	if class == engine.ReadOnly {
		e.stats.BeginsRO.Inc()
		e.rec.RecordBegin(id, class)
		engine.RecordSnapshot(e.rec, id, sn)
		return
	}
	e.stats.BeginsRW.Inc()
	e.rec.RecordBegin(id, class)
}

// read reports a read of key that returned the version numbered tn (0
// for the bootstrap state or an absent key).
func (e *Engine) read(id uint64, key string, tn uint64) {
	e.hot.TouchRead(key)
	e.rec.RecordRead(id, key, tn)
}

// write reports a write of key, buffered or pending until commit.
func (e *Engine) write(key string) {
	e.hot.TouchWrite(key)
}

// acquired reports one lock request. A wait the lock manager measured
// feeds the lock-wait histogram, the probe (lock-wait phase and the
// blocked-on blame edge), the stripe heatmap and the event ring. The
// first grant opens the 2PL hold window releaseLocks charges.
func (e *Engine) acquired(id uint64, p *probe, key string, w lock.Wait, granted bool) {
	if w.Blocked() {
		e.stats.LockWaitNanos.Record(w.Dur.Nanoseconds())
		p.lockWait(key, w)
		e.hot.RecordStripeWait(w.Stripe, w.Dur)
		e.opts.Trace.Record(obs.Event{Type: obs.EvLockWait, Tx: id, Key: key, Dur: w.Dur.Nanoseconds()})
	}
	if granted && e.hot != nil && p.lockedAt.IsZero() {
		p.lockedAt = time.Now()
	}
}

// releaseLocks drops every lock transaction id holds. With the profiler
// on it first charges the first-lock→release span as hold time to the
// stripe of every buffered write key (keys only read-locked are not
// retained by the transaction and are skipped).
func (e *Engine) releaseLocks(id uint64, p *probe, buf map[string]bufWrite) {
	if e.hot != nil && !p.lockedAt.IsZero() {
		held := time.Since(p.lockedAt)
		for key := range buf {
			e.hot.RecordHold(e.locks.StripeOf(key), held)
		}
	}
	e.locks.ReleaseAll(id)
}

// install makes the write set committed at tn, timed as the install
// phase, and reports each write. Under T/O the versions already exist
// as pending and are promoted; the other protocols create them from the
// buffer.
func (e *Engine) install(id uint64, p *probe, tn uint64, buf map[string]bufWrite, pending bool) {
	start := p.begin(obs.PhaseInstall)
	for key, w := range buf {
		o := e.store.GetOrCreate(key)
		if pending {
			o.ResolvePending(tn, true)
		} else {
			o.InstallCommitted(storage.Version{TN: tn, Data: w.data, Tombstone: w.tombstone})
		}
		e.rec.RecordWrite(id, key, tn)
	}
	p.end(obs.PhaseInstall, start)
}

// committed reports a commit at tn. A read-only transaction's trace
// finalizes here: no visibility callback will ever name it, as it
// registers nothing.
func (e *Engine) committed(id uint64, p *probe, tn uint64, class engine.Class) {
	e.rec.RecordCommit(id, tn)
	if class == engine.ReadOnly {
		e.stats.CommitsRO.Inc()
		p.finishCommit()
		return
	}
	e.stats.CommitsRW.Inc()
}

// abort reports an abort and finalizes its trace. cause selects the
// counter; key, when set, is the contested key the profiler pairs with
// the cause and, for a wound, charges to its lock stripe.
func (e *Engine) abort(id uint64, p *probe, cause obs.AbortCause, key string) {
	e.stats.CountAbort(cause)
	if e.hot != nil && key != "" {
		e.hot.RecordConflict(cause.String(), key)
		if cause == obs.AbortWounded {
			e.hot.RecordWound(e.locks.StripeOf(key))
		}
	}
	e.rec.RecordAbort(id)
	p.finishAbort()
}
