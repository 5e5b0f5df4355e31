// Command mvdbbench is the mvdb benchmark. It drives the public mvdb API
// from one process with a closed loop of runtime.NumCPU() clients, each
// sending its next call only after the previous one returned, checks the
// results, and prints every metric by name and unit. Its last line of
// output is one JSON object:
//
//	{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones of BENCHMARK.json;
// with -trace 1 the run is split into an untraced half and a traced half,
// and the metrics are the per-layer ones plus the tracing overhead.
// Build and run it with perfbench/run.sh; NOTES.md explains each metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"mvdb"
)

const (
	// An untraced run opens and preloads a database at least
	// minSetupReps times and until setupBudget has passed (at most
	// maxSetupReps); setup_s is their median, and the last database is
	// the one measured.
	minSetupReps = 3
	maxSetupReps = 15
	setupBudget  = 2500 * time.Millisecond
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

type config struct {
	w       workload
	seed    int64
	seconds float64
	traced  bool
	dir     string
}

func parseFlags(args []string, stderr io.Writer) (config, error) {
	fs := flag.NewFlagSet("mvdbbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: update-mem, update-logged or bank-hot")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 10, "length of the measured loop in seconds")
	trace := fs.Int("trace", 0, "1 = per-layer run (untraced half, then traced half)")
	dir := fs.String("dir", ".bench_build", "directory for the run's databases and logs")
	if err := fs.Parse(args); err != nil {
		return config{}, err
	}
	w, err := findWorkload(*name)
	if err != nil {
		return config{}, err
	}
	if *seconds <= 0 {
		return config{}, fmt.Errorf("-seconds must be positive, got %v", *seconds)
	}
	if *trace != 0 && *trace != 1 {
		return config{}, fmt.Errorf("-trace must be 0 or 1, got %d", *trace)
	}
	return config{w: w, seed: *seed, seconds: *seconds, traced: *trace == 1, dir: *dir}, nil
}

func run(args []string, stdout, stderr io.Writer) int {
	cfg, err := parseFlags(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "mvdbbench:", err)
		return 2
	}
	work, err := os.MkdirTemp(cfg.dir, "run-")
	if err != nil {
		fmt.Fprintln(stderr, "mvdbbench:", err)
		return 1
	}
	defer os.RemoveAll(work)

	clients := runtime.NumCPU()
	fmt.Fprintf(stdout, "workload %s: %s\n", cfg.w.name, cfg.w.why)
	fmt.Fprintf(stdout, "seed %d, %.3g s measured, trace %v; nproc %d, GOMAXPROCS %d, %d closed-loop clients, %s\n",
		cfg.seed, cfg.seconds, cfg.traced, runtime.NumCPU(), runtime.GOMAXPROCS(0), clients, runtime.Version())
	if cfg.w.logged {
		fmt.Fprintln(stdout, "flush policy: no fsync per commit; the log is flushed when its buffer fills and on Close")
	}

	var res result
	if !cfg.traced {
		p, err := runPhase(cfg, clients, false, cfg.seconds, minSetupReps, filepath.Join(work, "plain"))
		if err != nil {
			fmt.Fprintln(stderr, "mvdbbench:", err)
			return 1
		}
		p.print(stdout, "")
		res = p.result()
		res.Metrics = p.endToEnd()
	} else {
		plain, err := runPhase(cfg, clients, false, cfg.seconds/2, 1, filepath.Join(work, "plain"))
		if err != nil {
			fmt.Fprintln(stderr, "mvdbbench:", err)
			return 1
		}
		plain.print(stdout, "untraced half")
		traced, err := runPhase(cfg, clients, true, cfg.seconds/2, 1, filepath.Join(work, "traced"))
		if err != nil {
			fmt.Fprintln(stderr, "mvdbbench:", err)
			return 1
		}
		traced.print(stdout, "traced half")
		res = plain.result()
		res.merge(traced.result())
		res.Metrics = perLayer(plain, traced)
	}
	printMetrics(stdout, res.Metrics)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "mvdbbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// phase is one database lifetime: set-up, the measured loop, and the
// checks that follow it.
type phase struct {
	w       workload
	setupS  []float64
	elapsed time.Duration

	win []window // whole windows; a loop shorter than one window has one
	// winGCPasses are the GC passes of each window, from Stats sampled
	// at the window's end.
	winGCPasses              []int64
	rw, ro                   hist // every call
	sp                       layerSpans
	updates, views, attempts int64
	updateErrs, badViews     int64
	badGroups                int64
	badSums                  []int64
	firstErr                 error

	mallocs, allocBytes uint64
	liveHeapMB          float64 // after set-up
	heapAfterMB         float64 // after the run and a final prune
	before, after       mvdb.Stats
	gcPassMS            float64

	totalKeys int
	total     int64
	totalOK   bool

	// update-logged only.
	recoverS            float64
	logBytes, userBytes int64
	durChecked, durBad  int
	durFirst            string
}

// runPhase sets up at least minReps times (once when minReps is 1),
// measures the loop for seconds and runs the checks.
func runPhase(cfg config, clients int, traced bool, seconds float64, minReps int, dir string) (*phase, error) {
	in := makeInputs(cfg.w)
	p := &phase{w: cfg.w}
	opts := mvdb.Options{GCInterval: cfg.w.gcInterval, DeadlockPolicy: cfg.w.deadlock, PhaseTiming: traced}
	var db *mvdb.DB
	var spent float64
	for r := 0; ; r++ {
		runtime.GC()
		setupDir := filepath.Join(dir, fmt.Sprintf("setup%d", r))
		if err := os.MkdirAll(setupDir, 0o755); err != nil {
			return nil, err
		}
		if cfg.w.logged {
			opts.WALPath = filepath.Join(setupDir, "commit.log")
		}
		d, s, err := setup(opts, in.preload)
		if err != nil {
			return nil, err
		}
		p.setupS = append(p.setupS, s)
		spent += s
		if minReps == 1 || r+1 >= maxSetupReps || (r+1 >= minReps && spent >= setupBudget.Seconds()) {
			db = d
			break
		}
		if err := d.Close(); err != nil {
			return nil, err
		}
		if err := os.RemoveAll(setupDir); err != nil {
			return nil, err
		}
	}
	// The heap is measured with only the database and what it holds
	// live: after a run, Prune keeps each version chain's capacity, so
	// a later reading would grow with the writes per key and punish a
	// faster engine.
	in.preload = nil
	p.liveHeapMB = liveHeapMB()

	streams := makeStreams(cfg.w, cfg.seed, clients)
	windows := max(1, int(seconds*float64(time.Second)/float64(windowLen)))
	cs := make([]*client, clients)
	for i := range cs {
		cs[i] = newClient(db, cfg.w, in, streams[i], traced, windows)
	}
	runtime.GC()
	p.before = db.Stats()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	var stop atomic.Bool
	var wg sync.WaitGroup
	start := time.Now()
	for _, c := range cs {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			c.run(start, &stop)
		}(c)
	}
	// Sample Stats at each window's end, so the report can show whether
	// the slow windows are those with more GC passes.
	last := p.before
	for i := 1; time.Duration(i)*windowLen <= time.Duration(seconds*float64(time.Second)); i++ {
		time.Sleep(time.Until(start.Add(time.Duration(i) * windowLen)))
		now := db.Stats()
		p.winGCPasses = append(p.winGCPasses, now.GCPasses-last.GCPasses)
		last = now
	}
	time.Sleep(time.Until(start.Add(time.Duration(seconds * float64(time.Second)))))
	stop.Store(true)
	wg.Wait()
	p.elapsed = time.Since(start)
	runtime.ReadMemStats(&m1)
	p.after = db.Stats()
	p.mallocs = m1.Mallocs - m0.Mallocs
	p.allocBytes = m1.TotalAlloc - m0.TotalAlloc

	acked := make([]int64, cfg.w.keys)
	p.win = make([]window, windows)
	for _, c := range cs {
		for i := range c.win {
			p.rw.merge(&c.win[i].rw)
			p.ro.merge(&c.win[i].ro)
			if i < windows {
				p.win[i].rw.merge(&c.win[i].rw)
				p.win[i].ro.merge(&c.win[i].ro)
				p.win[i].committed += c.win[i].committed
			}
		}
		p.sp.add(&c.sp)
		p.updates += c.updates
		p.views += c.views
		p.attempts += c.attempts
		p.updateErrs += c.updateErrs
		p.badViews += c.badViews
		p.badGroups += c.badGroups
		p.badSums = append(p.badSums, c.badSums...)
		if p.firstErr == nil {
			p.firstErr = c.firstErr
		}
		for k, v := range c.acked {
			acked[k] = max(acked[k], v)
		}
	}

	var passes []float64
	for i := 0; i < 3; i++ {
		t := time.Now()
		db.CollectGarbage()
		passes = append(passes, float64(time.Since(t))/1e6)
	}
	p.gcPassMS = median(passes)
	p.heapAfterMB = liveHeapMB()

	if cfg.w.logged {
		var err error
		if db, err = p.reopen(db, opts, in, acked); err != nil {
			return nil, err
		}
	}
	var err error
	p.totalKeys, p.total, err = scanTotal(db)
	if err != nil {
		return nil, fmt.Errorf("final scan: %w", err)
	}
	p.totalOK = totalOK(cfg.w, p.totalKeys, p.total, p.committedUpdates())
	if err := db.Close(); err != nil {
		return nil, err
	}
	return p, os.RemoveAll(dir)
}

// liveHeapMB is the smallest HeapAlloc of 5 readings, each right after a
// runtime.GC(). A background GC pass allocates while it runs, and the
// smallest reading is the one without such garbage.
func liveHeapMB() float64 {
	var ms runtime.MemStats
	least := uint64(math.MaxUint64)
	for i := 0; i < 5; i++ {
		runtime.GC()
		runtime.ReadMemStats(&ms)
		least = min(least, ms.HeapAlloc)
	}
	return float64(least) / (1 << 20)
}

// setup opens a database and preloads the keyspace; update-logged also
// checkpoints, so the preload survives a reopen (Bootstrap is not
// logged).
func setup(opts mvdb.Options, preload map[string][]byte) (*mvdb.DB, float64, error) {
	start := time.Now()
	db, err := mvdb.Open(opts)
	if err != nil {
		return nil, 0, err
	}
	if err := db.Bootstrap(preload); err != nil {
		db.Close()
		return nil, 0, err
	}
	if opts.WALPath != "" {
		if err := db.Checkpoint(); err != nil {
			db.Close()
			return nil, 0, err
		}
	}
	return db, time.Since(start).Seconds(), nil
}

// reopen closes the logged database, times the reopening that replays its
// log, and checks every acknowledged write.
func (p *phase) reopen(db *mvdb.DB, opts mvdb.Options, in *inputs, acked []int64) (*mvdb.DB, error) {
	if err := db.Close(); err != nil {
		return nil, err
	}
	fi, err := os.Stat(opts.WALPath)
	if err != nil {
		return nil, err
	}
	p.logBytes = fi.Size()
	p.userBytes = p.committedUpdates() * keysPerUpdate * int64(len(in.keys[0])+8)
	runtime.GC()
	start := time.Now()
	if db, err = mvdb.Open(opts); err != nil {
		return nil, fmt.Errorf("reopen: %w", err)
	}
	p.recoverS = time.Since(start).Seconds()
	p.durChecked, p.durBad, p.durFirst, err = durableMismatches(db, in, acked)
	if err != nil {
		db.Close()
		return nil, fmt.Errorf("durable check: %w", err)
	}
	return db, nil
}

func (p *phase) committedUpdates() int64 { return p.updates - p.updateErrs }

func (p *phase) committed() int64 { return p.committedUpdates() + p.views - p.badViews }

// txnPerS is the median over windows of the calls that succeeded per
// second.
func (p *phase) txnPerS() float64 { return median(p.winTxnPerS()) }

// winTxnPerS is each window's calls that succeeded per second of the
// time the window covers: a loop shorter than one window has a single,
// shorter window.
func (p *phase) winTxnPerS() []float64 {
	xs := make([]float64, len(p.win))
	for i := range p.win {
		covered := min(windowLen, p.elapsed-time.Duration(i)*windowLen)
		xs[i] = ratio(float64(p.win[i].committed), covered.Seconds())
	}
	return xs
}

// rwUS and roUS are the medians over windows of one latency quantile,
// skipping windows without a call of that class.
func (p *phase) rwUS(q float64) float64 {
	return p.quantileMedian(func(w *window) *hist { return &w.rw }, q)
}

func (p *phase) roUS(q float64) float64 {
	return p.quantileMedian(func(w *window) *hist { return &w.ro }, q)
}

func (p *phase) quantileMedian(class func(*window) *hist, q float64) float64 {
	var xs []float64
	for i := range p.win {
		if h := class(&p.win[i]); h.n > 0 {
			xs = append(xs, h.quantileUS(q))
		}
	}
	return median(xs)
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result counts every call and every final check as attempted, and a
// failed check or an Update that returned an error as failed. Only the
// checks decide correctness: an Update error is reported to its caller,
// who knows the write did not happen.
func (p *phase) result() result {
	r := result{
		Correct:   p.badGroups == 0 && p.totalOK && p.durBad == 0,
		Attempted: p.updates + p.views + 1 + int64(p.durChecked),
		Failed:    p.updateErrs + p.badViews + int64(p.durBad),
	}
	if !p.totalOK {
		r.Failed++
	}
	return r
}

func (r *result) merge(o result) {
	r.Correct = r.Correct && o.Correct
	r.Attempted += o.Attempted
	r.Failed += o.Failed
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func (p *phase) print(w io.Writer, label string) {
	if label != "" {
		fmt.Fprintf(w, "-- %s\n", label)
	}
	fmt.Fprintf(w, "calls: %d updates (%d returned an error), %d views (%d failed); %.4g s measured\n",
		p.updates, p.updateErrs, p.views, p.badViews, p.elapsed.Seconds())
	fmt.Fprintf(w, "samples: rw %d, ro %d; latencies and txn_per_s are medians over %d windows of %v\n",
		p.rw.n, p.ro.n, len(p.win), windowLen)
	fmt.Fprintf(w, "per window: txn/s %.0f, gc passes %d\n", p.winTxnPerS(), p.winGCPasses)
	if p.firstErr != nil {
		fmt.Fprintf(w, "first call error: %v\n", p.firstErr)
	}
	if p.badGroups > 0 {
		fmt.Fprintf(w, "CHECK FAILED: %d snapshot group sums wrong, e.g. %v (want %d)\n",
			p.badGroups, p.badSums, groupSize*initialBalance)
	}
	if !p.totalOK {
		fmt.Fprintf(w, "CHECK FAILED: final scan saw %d keys totalling %d\n", p.totalKeys, p.total)
	}
	if p.durBad > 0 {
		fmt.Fprintf(w, "CHECK FAILED: %d of %d acknowledged keys wrong after reopen, e.g. %s\n",
			p.durBad, p.durChecked, p.durFirst)
	}
	r := p.result()
	fmt.Fprintf(w, "%-28s %14.6g %s\n", "failed_frac", ratio(float64(r.Failed), float64(r.Attempted)), "1")
	fmt.Fprintf(w, "%-28s %14.6g %s (n=%d)\n", "rw_p99_us", p.rwUS(0.99), "us", p.rw.n)
	if p.ro.n > 0 {
		fmt.Fprintf(w, "%-28s %14.6g %s (n=%d)\n", "ro_p50_us", p.roUS(0.5), "us", p.ro.n)
		fmt.Fprintf(w, "%-28s %14.6g %s (n=%d)\n", "ro_p99_us", p.roUS(0.99), "us", p.ro.n)
	}
	fmt.Fprintf(w, "%-28s %14.6g %s (after the run and a final prune)\n", "heap_after_run_mb", p.heapAfterMB, "MiB")
	if p.w.logged {
		fmt.Fprintf(w, "%-28s %14.6g %s\n", "recover_s", p.recoverS, "s")
		fmt.Fprintf(w, "%-28s %14.6g %s\n", "disk_bytes_per_user_byte", ratio(float64(p.logBytes), float64(p.userBytes)), "1")
	}
}

func printMetrics(w io.Writer, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%-28s %14.6g %s\n", n, ms[n].Value, ms[n].Unit)
	}
}

// endToEnd returns the untraced metrics every workload reports.
func (p *phase) endToEnd() map[string]metric {
	c := float64(p.committed())
	return map[string]metric{
		"setup_s":             {median(p.setupS), "s"},
		"txn_per_s":           {p.txnPerS(), "1/s"},
		"rw_p50_us":           {p.rwUS(0.5), "us"},
		"allocs_per_txn":      {ratio(float64(p.mallocs), c), "count"},
		"alloc_bytes_per_txn": {ratio(float64(p.allocBytes), c), "B"},
		"live_heap_mb":        {p.liveHeapMB, "MiB"},
	}
}

// phaseMean is the mean of one vc+2pl phase row in microseconds.
func phaseMean(s mvdb.Stats, name string) float64 {
	for _, ps := range s.Phases {
		if ps.Protocol == "vc+2pl" && ps.Phase == name {
			return ps.Durations.Mean / 1e3
		}
	}
	return 0
}

// perLayer returns the per-layer metrics: spans and Stats deltas of the
// traced half, the untraced half's figures for what only some workloads
// have, and the tracing overhead.
func perLayer(plain, t *phase) map[string]metric {
	d := func(f func(mvdb.Stats) int64) float64 { return float64(f(t.after) - f(t.before)) }
	commits := d(func(s mvdb.Stats) int64 { return s.CommitsRW })
	passes := d(func(s mvdb.Stats) int64 { return s.GCPasses })
	secs := t.elapsed.Seconds()
	m := map[string]metric{
		"mvdb.update_attempts_per_call": {ratio(float64(t.attempts), float64(t.updates)), "count"},
		"core.begin_rw_us":              {t.sp.beginRW.meanUS(), "us"},
		"core.get_rw_us":                {t.sp.get.meanUS(), "us"},
		"core.put_rw_us":                {t.sp.put.meanUS(), "us"},
		"core.commit_rw_us":             {t.sp.commit.meanUS(), "us"},
		"core.commit_ratio":             {ratio(commits, d(func(s mvdb.Stats) int64 { return s.BeginsRW })), "1"},
		"core.lock_aborts_per_commit":   {ratio(d(func(s mvdb.Stats) int64 { return s.AbortsDeadlock + s.AbortsWounded + s.AbortsTimeout }), commits), "1"},
		"lock.wait_us":                  {phaseMean(t.after, "lock-wait"), "us"},
		"lock.waits_per_commit":         {ratio(d(func(s mvdb.Stats) int64 { return s.LockWaits }), commits), "1"},
		"lock.wounds_per_commit":        {ratio(d(func(s mvdb.Stats) int64 { return s.LockWounds }), commits), "1"},
		"vc.begin_ro_us":                {t.sp.beginRO.meanUS(), "us"},
		"vc.visible_lag_us":             {phaseMean(t.after, "visible-wait"), "us"},
		"vc.lag_txns":                   {ratio(float64(t.sp.lagSum), float64(t.views)), "count"},
		"storage.install_us":            {phaseMean(t.after, "install"), "us"},
		"storage.versions_per_key":      {ratio(float64(t.after.Versions), float64(t.after.Keys)), "count"},
		"storage.heap_after_run_mb":     {plain.heapAfterMB, "MiB"},
		"storage.max_chain":             {float64(t.after.MaxVersionChain), "count"},
		"index.scan_us":                 {t.sp.scan.meanUS(), "us"},
		"index.keys_per_scan":           {ratio(float64(t.sp.scanKeys), float64(t.sp.scan.n)), "count"},
		"wal.enqueue_us":                {phaseMean(t.after, "wal-enqueue"), "us"},
		"wal.bytes_per_commit":          {ratio(d(func(s mvdb.Stats) int64 { return s.WALBytes }), commits), "B"},
		"wal.recover_s":                 {plain.recoverS, "s"},
		"wal.disk_bytes_per_user_byte":  {ratio(float64(plain.logBytes), float64(plain.userBytes)), "1"},
		"gc.passes_per_s":               {passes / secs, "1/s"},
		"gc.reclaimed_per_pass":         {ratio(d(func(s mvdb.Stats) int64 { return s.GCReclaimed }), passes), "count"},
		"gc.pass_ms":                    {t.gcPassMS, "ms"},
		"mvdb.rw_p99_us":                {plain.rwUS(0.99), "us"},
		"mvdb.ro_p50_us":                {plain.roUS(0.5), "us"},
		"mvdb.ro_p99_us":                {plain.roUS(0.99), "us"},
		"bench.untraced_txn_per_s":      {plain.txnPerS(), "1/s"},
		"bench.traced_txn_per_s":        {t.txnPerS(), "1/s"},
		"bench.tracing_overhead_frac":   {1 - ratio(t.txnPerS(), plain.txnPerS()), "1"},
	}
	return m
}
