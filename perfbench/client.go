package main

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"mvdb"
)

// updateRetries matches mvdb's default Options.MaxUpdateRetries; the
// traced loop re-implements DB.Update with the same bound.
const updateRetries = 100

// layerSpans are the benchmark's own spans around the public calls into
// each layer, filled only in a traced run.
type layerSpans struct {
	beginRW, get, put, commit span // core
	beginRO                   span // vc
	scan                      span // index
	scanKeys                  int64
	lagSum                    uint64 // VisibilityLag() at each View start
}

func (l *layerSpans) add(o *layerSpans) {
	l.beginRW.add(o.beginRW)
	l.get.add(o.get)
	l.put.add(o.put)
	l.commit.add(o.commit)
	l.beginRO.add(o.beginRO)
	l.scan.add(o.scan)
	l.scanKeys += o.scanKeys
	l.lagSum += o.lagSum
}

// client is one closed-loop caller: it sends its next call only after
// the previous one returned. Nothing in its loop allocates; the
// callbacks handed to mvdb are method values bound once, before timing.
type client struct {
	db     *mvdb.DB
	in     *inputs
	ops    []op
	traced bool

	cur      *op
	wrote    [keysPerUpdate]int64 // values the current attempt wrote
	scanSum  int64
	scanKeys int
	updateFn func(*mvdb.Tx) error
	viewFn   func(*mvdb.Tx) error
	visitFn  func(string, []byte) bool

	// acked[k] is the last value this client saw acknowledged for key
	// k (update-logged only).
	acked []int64

	updates, views, attempts int64
	updateErrs, badViews     int64
	badGroups                int64 // views whose group sum check failed
	firstErr                 error
	badSums                  []int64 // first few failing group sums
	t0                       time.Time
	win                      []window
	sp                       layerSpans
}

// window is what one client saw in one windowLen of the measured loop:
// the latency of each call class and the calls that succeeded. The
// phase reports medians over windows, so a burst of interference from
// outside the benchmark moves one window and not the figure.
type window struct {
	rw, ro    hist
	committed int64
}

const windowLen = time.Second

// windowOf returns the window a call started at t falls in; calls past
// the last full window share one overflow window.
func (c *client) windowOf(t time.Time) *window {
	i := int(t.Sub(c.t0) / windowLen)
	if i >= len(c.win) {
		i = len(c.win) - 1
	}
	return &c.win[i]
}

func newClient(db *mvdb.DB, w workload, in *inputs, ops []op, traced bool, windows int) *client {
	c := &client{db: db, in: in, ops: ops, traced: traced}
	c.win = make([]window, windows+1)
	c.updateFn = c.rmw
	if w.bank {
		c.updateFn = c.transfer
	}
	c.viewFn = c.checkGroup
	c.visitFn = c.visit
	if w.logged {
		c.acked = make([]int64, w.keys)
	}
	c.badSums = make([]int64, 0, 8)
	return c
}

// run issues calls from t0 until stop is set.
func (c *client) run(t0 time.Time, stop *atomic.Bool) {
	c.t0 = t0
	for i := 0; !stop.Load(); i++ {
		c.cur = &c.ops[i%len(c.ops)]
		start := time.Now()
		w := c.windowOf(start)
		if c.cur.view {
			ok := c.view()
			w.ro.record(time.Since(start))
			if ok {
				w.committed++
			}
			continue
		}
		err := c.update()
		w.rw.record(time.Since(start))
		if err != nil {
			c.updateErrs++
			if c.firstErr == nil {
				c.firstErr = err
			}
			continue
		}
		w.committed++
		if c.acked != nil {
			for j, k := range c.cur.keys {
				if c.wrote[j] > c.acked[k] {
					c.acked[k] = c.wrote[j]
				}
			}
		}
	}
}

func (c *client) update() error {
	c.updates++
	if !c.traced {
		return c.db.Update(c.updateFn)
	}
	// DB.Update hides its Begin and Commit, so the traced run drives
	// the same retry loop through the public calls to time them.
	var last error
	for attempt := 0; attempt < updateRetries; attempt++ {
		t := time.Now()
		tx, err := c.db.Begin()
		c.sp.beginRW.since(t)
		if err != nil {
			return err
		}
		if err := c.updateFn(tx); err != nil {
			tx.Abort()
			if mvdb.IsRetryable(err) {
				last = err
				continue
			}
			return err
		}
		t = time.Now()
		err = tx.Commit()
		c.sp.commit.since(t)
		if err == nil {
			return nil
		}
		if !mvdb.IsRetryable(err) {
			return err
		}
		last = err
	}
	return fmt.Errorf("update retries exhausted: %w", last)
}

func (c *client) get(tx *mvdb.Tx, key string) (int64, error) {
	if !c.traced {
		v, err := tx.Get(key)
		if err != nil {
			return 0, err
		}
		return decode(v), nil
	}
	t := time.Now()
	v, err := tx.Get(key)
	c.sp.get.since(t)
	if err != nil {
		return 0, err
	}
	return decode(v), nil
}

func (c *client) put(tx *mvdb.Tx, key string, v int64) error {
	if !c.traced {
		return tx.Put(key, c.in.vals.encode(v))
	}
	t := time.Now()
	err := tx.Put(key, c.in.vals.encode(v))
	c.sp.put.since(t)
	return err
}

// rmw increments keysPerUpdate counters by one each.
func (c *client) rmw(tx *mvdb.Tx) error {
	c.attempts++
	for j, k := range c.cur.keys {
		key := c.in.keys[k]
		v, err := c.get(tx, key)
		if err != nil {
			return err
		}
		c.wrote[j] = v + 1
		if err := c.put(tx, key, v+1); err != nil {
			return err
		}
	}
	return nil
}

// transfer moves one unit between two accounts of the same group.
func (c *client) transfer(tx *mvdb.Tx) error {
	c.attempts++
	from, to := c.in.keys[c.cur.keys[0]], c.in.keys[c.cur.keys[1]]
	a, err := c.get(tx, from)
	if err != nil {
		return err
	}
	b, err := c.get(tx, to)
	if err != nil {
		return err
	}
	if err := c.put(tx, from, a-1); err != nil {
		return err
	}
	return c.put(tx, to, b+1)
}

// view runs one group check and reports whether it succeeded.
func (c *client) view() bool {
	c.views++
	var err error
	if !c.traced {
		err = c.db.View(c.viewFn)
	} else {
		c.sp.lagSum += c.db.VisibilityLag()
		t := time.Now()
		var tx *mvdb.Tx
		tx, err = c.db.BeginReadOnly()
		c.sp.beginRO.since(t)
		if err == nil {
			if err = c.checkGroup(tx); err != nil {
				tx.Abort()
			} else {
				err = tx.Commit()
			}
		}
	}
	if err != nil && !errors.Is(err, errBadGroup) {
		// A View has no retry: any error is a failed call.
		c.badViews++
		if c.firstErr == nil {
			c.firstErr = err
		}
	}
	return err == nil
}

var errBadGroup = errors.New("group sum check failed")

// checkGroup scans one group and checks its sum.
func (c *client) checkGroup(tx *mvdb.Tx) error {
	c.scanSum, c.scanKeys = 0, 0
	prefix := c.in.prefixes[c.cur.keys[0]]
	var err error
	if !c.traced {
		err = tx.Scan(prefix, c.visitFn)
	} else {
		t := time.Now()
		err = tx.Scan(prefix, c.visitFn)
		c.sp.scan.since(t)
		c.sp.scanKeys += int64(c.scanKeys)
	}
	if err != nil {
		return err
	}
	if !groupSumOK(c.scanKeys, c.scanSum) {
		c.badViews++
		c.badGroups++
		if len(c.badSums) < cap(c.badSums) {
			c.badSums = append(c.badSums, c.scanSum)
		}
		return errBadGroup
	}
	return nil
}

func (c *client) visit(_ string, v []byte) bool {
	c.scanSum += decode(v)
	c.scanKeys++
	return true
}
