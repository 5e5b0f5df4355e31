package core

import (
	"fmt"
	"path/filepath"
	"sync"
	"testing"

	"mvdb/internal/engine"
	"mvdb/internal/trace"
	"mvdb/internal/wal"
)

// TestProbeAgreement checks that the phase matrix and the span tracer
// are fed from one measurement: with every transaction traced and fewer
// transactions than the trace rings hold, each (protocol, phase) cell's
// sample count and total must equal the count and duration sum of the
// spans of that name in that protocol's traces.
func TestProbeAgreement(t *testing.T) {
	const workers, perWorker = 4, 40 // 160 read-write + 160 read-only traces
	for _, p := range []Protocol{TwoPhaseLocking, TimestampOrdering, Optimistic} {
		t.Run(p.String(), func(t *testing.T) {
			w, err := wal.CreateWith(filepath.Join(t.TempDir(), "commit.log"), wal.Options{Policy: wal.SyncBatch})
			if err != nil {
				t.Fatal(err)
			}
			defer w.Close()
			tracer := trace.New(trace.Options{Sample: 1, Recent: 1024, Promoted: 1024})
			e := New(Options{Protocol: p, PhaseTiming: true, Traces: tracer, WAL: w})
			defer e.Close()

			var wg sync.WaitGroup
			for g := 0; g < workers; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; i < perWorker; i++ {
						key := fmt.Sprintf("k%d", (g+i)%3) // contended: lock waits and aborts
						tx, err := e.Begin(engine.ReadWrite)
						if err != nil {
							t.Error(err)
							return
						}
						_, gerr := tx.Get(key)
						if gerr == nil || gerr == engine.ErrNotFound {
							if tx.Put(key, []byte{byte(i)}) == nil {
								tx.Commit()
							}
						}
						tx.Abort() // no-op after Commit or an internal abort
						ro, err := e.Begin(engine.ReadOnly)
						if err != nil {
							t.Error(err)
							return
						}
						ro.Get(key)
						ro.Commit()
					}
				}(g)
			}
			wg.Wait()
			if st := tracer.Stats(); st.Finished != st.Sampled || st.DroppedRecent+st.DroppedPromoted != 0 {
				t.Fatalf("traces not all retained: %+v", st)
			}

			type cell struct {
				n  uint64
				ns int64
			}
			spans := map[string]cell{}
			for _, tr := range append(tracer.Recent(), tracer.Promoted()...) {
				for _, s := range tr.Spans {
					c := spans[tr.Proto+"/"+s.Name]
					spans[tr.Proto+"/"+s.Name] = cell{c.n + 1, c.ns + s.DurNS}
				}
			}
			phases := e.Snapshot().Phases
			if len(phases) == 0 {
				t.Fatal("no phase cells recorded")
			}
			for _, ps := range phases {
				k := ps.Protocol + "/" + ps.Phase
				if got, want := spans[k], (cell{ps.Durations.Count, ps.Durations.TotalNanoseconds}); got != want {
					t.Errorf("%s: spans count=%d sum=%dns, phase cell count=%d total=%dns", k, got.n, got.ns, want.n, want.ns)
				}
				delete(spans, k)
			}
			for k, c := range spans {
				t.Errorf("%s: %d spans with no phase cell", k, c.n)
			}
		})
	}
}
