package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"time"

	"mvdb"
)

// workload is one input shape the benchmark drives. Every input is
// generated from the seed before any timer starts.
type workload struct {
	name string
	why  string
	// keys is the preloaded keyspace: counters for the update
	// workloads, accounts for bank-hot.
	keys int
	// viewFrac is the share of calls that are DB.View (bank-hot only).
	viewFrac float64
	// bank selects the transfer/scan shape: keys are accounts in groups
	// of groupSize, groups picked with Zipf s=zipfS.
	bank bool
	// logged writes every commit to the commit log and checks the
	// acknowledged writes after a reopen.
	logged bool
	// gcInterval turns on background version garbage collection. It is
	// only set on workloads without View: a GC pass can prune a version
	// that a read-only snapshot has just taken (see NOTES.md).
	gcInterval time.Duration
	// deadlock is the 2PL deadlock policy.
	deadlock mvdb.DeadlockPolicy
}

const (
	// keysPerUpdate is the read-modify-write width of the update
	// workloads.
	keysPerUpdate = 4
	groupSize     = 8
	zipfS         = 1.2
	// initialBalance is every account's opening balance, so each
	// group's sum is groupSize*initialBalance at every snapshot.
	initialBalance = 1000
	// streamLen is each client's pre-generated op stream; a client
	// that runs past its end starts over from the beginning.
	streamLen = 1 << 18
)

var workloads = []workload{
	{
		name: "update-mem",
		why:  "100% read-modify-write of 4 uniform keys over 2^18 in-memory keys: core, lock, storage and vc do all the work, wal and gc none",
		keys: 1 << 18,
	},
	{
		name:       "update-logged",
		why:        "the update-mem shape over 2^16 keys with every commit logged (no fsync per commit) and GC every 100ms: the log, recovery and GC paths",
		keys:       1 << 16,
		logged:     true,
		gcInterval: 100 * time.Millisecond,
	},
	{
		name:     "bank-hot",
		why:      "90% snapshot scans of a Zipf-hot group beside 10% same-group transfers, under wound-wait: the paper's read-only path under write contention",
		keys:     1 << 16,
		viewFrac: 0.9,
		bank:     true,
		deadlock: mvdb.DeadlockWoundWait,
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// op is one pre-generated call. For an update-workload call, keys holds
// keysPerUpdate distinct key indices. For a bank transfer, keys[0] and
// keys[1] are the source and destination accounts; for a bank view,
// keys[0] is the group.
type op struct {
	keys [keysPerUpdate]uint32
	view bool
}

// inputs are the key strings, scan prefixes, encoded values and the
// preload that set-up loads.
type inputs struct {
	keys     []string
	prefixes []string // bank groups' scan prefixes
	vals     valueTable
	preload  map[string][]byte
}

func makeInputs(w workload) *inputs {
	in := &inputs{vals: newValueTable()}
	in.keys = make([]string, w.keys)
	in.preload = make(map[string][]byte, w.keys)
	initial := int64(0)
	if w.bank {
		initial = initialBalance
		in.prefixes = make([]string, w.keys/groupSize)
		for g := range in.prefixes {
			in.prefixes[g] = fmt.Sprintf("b%05d.", g)
		}
	}
	for i := range in.keys {
		if w.bank {
			in.keys[i] = fmt.Sprintf("%s%d", in.prefixes[i/groupSize], i%groupSize)
		} else {
			in.keys[i] = fmt.Sprintf("k%07d", i)
		}
		in.preload[in.keys[i]] = in.vals.encode(initial)
	}
	return in
}

// makeStreams generates one op stream per client.
func makeStreams(w workload, seed int64, clients int) [][]op {
	streams := make([][]op, clients)
	for c := range streams {
		r := rand.New(rand.NewSource(seed*1_000_003 + int64(c)))
		streams[c] = genStream(w, r)
	}
	return streams
}

func genStream(w workload, r *rand.Rand) []op {
	s := make([]op, streamLen)
	var zipf *rand.Zipf
	groups := w.keys / groupSize
	if w.bank {
		zipf = rand.NewZipf(r, zipfS, 1, uint64(groups-1))
	}
	for i := range s {
		o := &s[i]
		if !w.bank {
			for j := 0; j < keysPerUpdate; j++ {
			again:
				k := uint32(r.Intn(w.keys))
				for _, prev := range o.keys[:j] {
					if prev == k {
						goto again
					}
				}
				o.keys[j] = k
			}
			continue
		}
		g := uint32(zipf.Uint64())
		if r.Float64() < w.viewFrac {
			o.view = true
			o.keys[0] = g
			continue
		}
		a := r.Intn(groupSize)
		b := r.Intn(groupSize - 1)
		if b >= a {
			b++
		}
		o.keys[0] = g*groupSize + uint32(a)
		o.keys[1] = g*groupSize + uint32(b)
	}
	return s
}

// valueTable holds the 8-byte encodings of every value in
// [-valueRange, valueRange) in one array. Tx.Put retains its value, so
// handing it an immutable slice of this table keeps the timed loop free
// of allocations: allocs_per_txn then counts only the engine's own.
type valueTable []byte

const valueRange = 1 << 16

func newValueTable() valueTable {
	t := make(valueTable, 2*valueRange*8)
	for v := int64(-valueRange); v < valueRange; v++ {
		i := (v + valueRange) * 8
		binary.BigEndian.PutUint64(t[i:i+8], uint64(v))
	}
	return t
}

// encode returns v's encoding; a value outside the table (a counter or
// balance that drifted that far) gets a fresh slice.
func (t valueTable) encode(v int64) []byte {
	if v >= -valueRange && v < valueRange {
		i := (v + valueRange) * 8
		return t[i : i+8 : i+8]
	}
	b := make([]byte, 8)
	binary.BigEndian.PutUint64(b, uint64(v))
	return b
}

func decode(b []byte) int64 { return int64(binary.BigEndian.Uint64(b)) }
