package core

import (
	"time"

	"mvdb/internal/lock"
	"mvdb/internal/obs"
	"mvdb/internal/trace"
	"mvdb/internal/wal"
)

// probe is one transaction's instrument. Every phase boundary is timed
// once, here, and that one measurement feeds all three sinks: the
// protocol × phase histogram and the goroutine's pprof labels
// (obs.PhaseStats) and the causal span (trace.Active). It also carries
// the first-lock stamp the hotspot profiler charges as 2PL hold time.
//
// Begin creates it; it is nil when PhaseTiming, TraceSample and Hotspot
// are all off (and whenever it would have nothing to do), so every
// instrumented site costs one nil test on the disabled path. A probe
// with no timing sink — Hotspot alone — only carries lockedAt.
type probe struct {
	phases *obs.PhaseStats // nil unless PhaseTiming
	tr     *trace.Active   // nil unless head-sampled
	proto  obs.ProtoIdx
	clock  bool // phases or tr is set: the probe times phases
	tx     uint64
	// lockedAt is the wall-clock instant of the first lock acquisition;
	// zero unless the hotspot profiler is on. The release paths charge
	// the full first-lock→release span to every held key's stripe as
	// hold time — the 2PL growing+shrinking window the heatmap wants.
	lockedAt time.Time
}

// newProbe starts transaction tx's instrument on the given protocol
// row, head-sampling its trace. It returns nil when no sink would use
// it: no phase matrix, an unsampled trace, and no 2PL hold time to
// stamp.
func (e *Engine) newProbe(proto obs.ProtoIdx, tx uint64) *probe {
	if e.phases == nil && e.traces == nil && e.hot == nil {
		return nil
	}
	tr := e.traces.Start(tx, proto.String())
	if tr == nil && e.phases == nil && (e.hot == nil || proto != obs.Proto2PL) {
		return nil
	}
	return &probe{phases: e.phases, tr: tr, proto: proto, clock: e.phases != nil || tr != nil, tx: tx}
}

// timed reports whether the probe feeds any timing sink.
func (p *probe) timed() bool { return p != nil && p.clock }

// begin opens phase ph: it tags the goroutine with the phase's pprof
// labels and returns the start stamp (zero when untimed). begin, end
// and the index's put and take are small enough to inline, so an
// uninstrumented call site compiles to its nil test.
func (p *probe) begin(ph obs.Phase) time.Time {
	if !p.timed() {
		return time.Time{}
	}
	return p.enter(ph)
}

func (p *probe) enter(ph obs.Phase) time.Time {
	p.phases.PprofEnter(p.proto, ph)
	return time.Now()
}

// end closes the phase begin opened, feeding the one duration to the
// histogram and the span.
func (p *probe) end(ph obs.Phase, start time.Time) {
	if p.timed() {
		p.exit(ph, start)
	}
}

func (p *probe) exit(ph obs.Phase, start time.Time) {
	d := time.Since(start)
	p.phases.PprofExit()
	p.observe(ph, start.UnixNano(), d.Nanoseconds())
}

// observe is the fan-out: one measured interval into both sinks.
func (p *probe) observe(ph obs.Phase, startNS, durNS int64) {
	p.phases.Record(p.proto, ph, p.tx, time.Duration(durNS))
	p.tr.SpanAt(ph.String(), -1, startNS, durNS)
}

// lockWait records a wait the lock manager measured, with the
// blocked-on blame edge naming the holder.
func (p *probe) lockWait(key string, w lock.Wait) {
	if !p.timed() {
		return
	}
	ns := w.Dur.Nanoseconds()
	p.observe(obs.PhaseLockWait, time.Now().UnixNano()-ns, ns)
	p.tr.Blame(trace.Blame{
		Kind:   trace.BlameBlockedOn,
		Phase:  obs.PhaseLockWait.String(),
		Tx:     w.Blocker,
		Key:    key,
		Stripe: w.Stripe,
		DurNS:  ns,
	})
}

// visible records the register→visible lag the VC drain measured and
// finalizes the trace: no later event belongs to the transaction.
func (p *probe) visible(d time.Duration) {
	if p == nil {
		return
	}
	now := time.Now().UnixNano()
	p.observe(obs.PhaseVisibleWait, now-d.Nanoseconds(), d.Nanoseconds())
	p.tr.FinishVisible(now)
}

// appendWAL writes rec through w. A timed probe splits the one append
// into its two separable costs — getting the record into the log buffer
// vs waiting for fsync coverage (the group-commit ticket wait under
// SyncBatch) — and attaches the joined-batch blame edge.
func (p *probe) appendWAL(w *wal.Writer, rec wal.Record) error {
	if !p.timed() {
		return w.Append(rec)
	}
	p.phases.PprofEnter(p.proto, obs.PhaseFsyncWait)
	start := time.Now().UnixNano()
	info, enq, syncWait, err := w.AppendTraced(rec)
	p.phases.PprofExit()
	p.observe(obs.PhaseWALEnqueue, start, enq)
	p.observe(obs.PhaseFsyncWait, start+enq, syncWait)
	if err == nil && info.Batch != 0 {
		p.tr.Blame(trace.Blame{
			Kind:    trace.BlameJoinedBatch,
			Phase:   obs.PhaseFsyncWait.String(),
			Tx:      info.LeaderTN,
			Batch:   info.Batch,
			Records: info.Records,
			DurNS:   syncWait,
		})
	}
	return err
}

// setTN records the transaction's serialization number on its trace.
func (p *probe) setTN(tn uint64) {
	if p != nil {
		p.tr.CommitTN(tn)
	}
}

// finishCommit and finishAbort finalize the trace of a transaction that
// will see no visibility callback.
func (p *probe) finishCommit() {
	if p != nil {
		p.tr.FinishCommit()
	}
}

func (p *probe) finishAbort() {
	if p != nil {
		p.tr.FinishAbort()
	}
}

// probeIndex lets the VC drain's visibility observer, which knows only
// a transaction number, find that transaction's probe. A nil
// *probeIndex (no timing sink) holds nothing.
type probeIndex struct{ shardMap[*probe] }

func newProbeIndex() *probeIndex {
	x := &probeIndex{}
	x.init()
	return x
}

// put indexes a timed probe under tn; untimed probes are skipped.
func (x *probeIndex) put(tn uint64, p *probe) {
	if x != nil && p.timed() {
		x.store(tn, p)
	}
}

func (x *probeIndex) take(tn uint64) *probe {
	if x == nil {
		return nil
	}
	return x.remove(tn)
}
