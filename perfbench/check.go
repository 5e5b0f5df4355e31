package main

import (
	"errors"
	"fmt"
	"strconv"

	"mvdb"
)

// groupSumOK is the bank snapshot check: a group's accounts at one
// snapshot must all be present and sum to the group's opening total,
// because every transfer stays inside one group.
func groupSumOK(keys int, sum int64) bool {
	return keys == groupSize && sum == groupSize*initialBalance
}

// totalOK is the lost-update check: the keyspace total must equal the
// opening total plus the net change of the acknowledged updates, and
// every preloaded key must still be there.
func totalOK(w workload, keys int, total, updates int64) bool {
	want := int64(0)
	if w.bank {
		want = int64(w.keys) * initialBalance
	} else {
		want = keysPerUpdate * updates
	}
	return keys == w.keys && total == want
}

// scanTotal sums every value of the keyspace in one snapshot.
func scanTotal(db *mvdb.DB) (keys int, total int64, err error) {
	err = db.View(func(tx *mvdb.Tx) error {
		return tx.Scan("", func(_ string, v []byte) bool {
			keys++
			total += decode(v)
			return true
		})
	})
	return keys, total, err
}

// durableMismatches counts keys whose value after a reopen differs from
// the last value acknowledged for them. acked merges every client's
// per-key maxima; 0 means the key was never written.
func durableMismatches(db *mvdb.DB, in *inputs, acked []int64) (checked, bad int, first string, err error) {
	err = db.View(func(tx *mvdb.Tx) error {
		for k, want := range acked {
			if want == 0 {
				continue
			}
			checked++
			v, err := tx.Get(in.keys[k])
			got := "missing"
			switch {
			case errors.Is(err, mvdb.ErrNotFound):
			case err != nil:
				return err
			case decode(v) == want:
				continue
			default:
				got = strconv.FormatInt(decode(v), 10)
			}
			bad++
			if first == "" {
				first = fmt.Sprintf("%s is %s after reopen, acknowledged %d", in.keys[k], got, want)
			}
		}
		return nil
	})
	return checked, bad, first, err
}
