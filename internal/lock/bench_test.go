package lock

import (
	"fmt"
	"sync/atomic"
	"testing"
)

func BenchmarkAcquireReleaseUncontended(b *testing.B) {
	m := NewManager(Detect, 0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		id := uint64(i + 1)
		m.Begin(id, id)
		if err := acquire(m, id, "k", Exclusive); err != nil {
			b.Fatal(err)
		}
		m.ReleaseAll(id)
	}
}

func BenchmarkAcquireSharedParallel(b *testing.B) {
	m := NewManager(Detect, 0)
	var ctr uint64
	var mu = make(chan struct{}, 1)
	mu <- struct{}{}
	nextID := func() uint64 {
		<-mu
		ctr++
		v := ctr
		mu <- struct{}{}
		return v
	}
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			id := nextID()
			m.Begin(id, id)
			if err := acquire(m, id, "shared-key", Shared); err != nil {
				b.Fatal(err)
			}
			m.ReleaseAll(id)
		}
	})
}

// BenchmarkStripedUniform measures the striping win directly: many
// goroutines acquiring exclusive locks on a uniform keyspace, with one
// stripe (the historical global-mutex table) versus the default count.
func BenchmarkStripedUniform(b *testing.B) {
	for _, stripes := range []int{1, DefaultStripes} {
		b.Run(fmt.Sprintf("stripes=%d", stripes), func(b *testing.B) {
			m := NewManagerStriped(Detect, 0, stripes)
			keys := make([]string, 256)
			for i := range keys {
				keys[i] = fmt.Sprintf("k%d", i)
			}
			var ctr atomic.Uint64
			b.ReportAllocs()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					id := ctr.Add(1)
					m.Begin(id, id)
					if err := acquire(m, id, keys[id%256], Exclusive); err != nil {
						b.Fatal(err)
					}
					m.ReleaseAll(id)
				}
			})
		})
	}
}

func BenchmarkAcquireManyKeys(b *testing.B) {
	for _, nKeys := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("keys=%d", nKeys), func(b *testing.B) {
			m := NewManager(Detect, 0)
			keys := make([]string, nKeys)
			for i := range keys {
				keys[i] = fmt.Sprintf("k%d", i)
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				id := uint64(i + 1)
				m.Begin(id, id)
				for _, k := range keys {
					if err := acquire(m, id, k, Exclusive); err != nil {
						b.Fatal(err)
					}
				}
				m.ReleaseAll(id)
			}
		})
	}
}
