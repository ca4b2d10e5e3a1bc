package core

// Tests of the process-wide byte-budgeted chunk cache: budget enforcement
// under concurrent load across traces, LRU-by-bytes eviction order,
// singleflight loads and the oversize-entry bypass.

import (
	"errors"
	"fmt"
	"sync"
	"testing"
)

func chunkOf(n int, fill uint64) []uint64 {
	addrs := make([]uint64, n)
	for i := range addrs {
		addrs[i] = fill
	}
	return addrs
}

func TestByteCacheBudgetEnforced(t *testing.T) {
	// 10 chunks of 100 addrs fit an 8000-byte budget exactly; inserting
	// 30 across three traces must keep residency at or below it.
	c := NewSharedChunkCacheBytes(8000)
	for trace := 0; trace < 3; trace++ {
		v := c.ForTrace(fmt.Sprintf("t%d", trace))
		for id := 0; id < 10; id++ {
			v.Put(id, chunkOf(100, uint64(id)))
			if st := c.Stats(); st.ResidentBytes > st.Budget {
				t.Fatalf("resident bytes %d exceed budget %d", st.ResidentBytes, st.Budget)
			}
		}
	}
	st := c.Stats()
	if st.ResidentBytes != 8000 || st.ResidentChunks != 10 {
		t.Fatalf("resident = %d bytes / %d chunks, want 8000 / 10", st.ResidentBytes, st.ResidentChunks)
	}
	if st.Evictions != 20 {
		t.Fatalf("evictions = %d, want 20", st.Evictions)
	}
	// Per-view accounting must sum to the global occupancy.
	var bytes, chunks int64
	for trace := 0; trace < 3; trace++ {
		vs := c.ForTrace(fmt.Sprintf("t%d", trace)).Stats()
		bytes += vs.ResidentBytes
		chunks += vs.ResidentChunks
	}
	if bytes != st.ResidentBytes || chunks != int64(st.ResidentChunks) {
		t.Fatalf("view sums = %d bytes / %d chunks, want %d / %d", bytes, chunks, st.ResidentBytes, st.ResidentChunks)
	}
}

func TestByteCacheLRUOrder(t *testing.T) {
	c := NewSharedChunkCacheBytes(3 * 80)
	v := c.ForTrace("t")
	v.Put(1, chunkOf(10, 1))
	v.Put(2, chunkOf(10, 2))
	v.Put(3, chunkOf(10, 3))
	if _, ok := v.Get(1); !ok { // refresh 1: 2 is now coldest
		t.Fatal("chunk 1 missing before eviction")
	}
	v.Put(4, chunkOf(10, 4))
	if _, ok := v.Get(2); ok {
		t.Fatal("chunk 2 survived eviction despite being LRU")
	}
	for _, id := range []int{1, 3, 4} {
		if _, ok := v.Get(id); !ok {
			t.Fatalf("chunk %d evicted out of LRU order", id)
		}
	}
}

func TestByteCacheTracesDoNotCollide(t *testing.T) {
	c := NewSharedChunkCacheBytes(1 << 20)
	a, b := c.ForTrace("a"), c.ForTrace("b")
	a.Put(7, chunkOf(4, 111))
	b.Put(7, chunkOf(4, 222))
	got, ok := a.Get(7)
	if !ok || got[0] != 111 {
		t.Fatalf("trace a chunk 7 = %v, %v; want [111 ...], true", got, ok)
	}
	got, ok = b.Get(7)
	if !ok || got[0] != 222 {
		t.Fatalf("trace b chunk 7 = %v, %v; want [222 ...], true", got, ok)
	}
}

func TestByteCacheOversizeEntryBypasses(t *testing.T) {
	c := NewSharedChunkCacheBytes(100)
	v := c.ForTrace("t")
	v.Put(1, chunkOf(1000, 1)) // 8000 bytes against a 100-byte budget
	if _, ok := v.Get(1); ok {
		t.Fatal("chunk larger than the whole budget was admitted")
	}
	if st := c.Stats(); st.ResidentBytes != 0 {
		t.Fatalf("resident bytes = %d, want 0", st.ResidentBytes)
	}
	// The singleflight load path still returns the data, it just is not
	// retained.
	got, err := v.GetOrLoad(1, true, func() ([]uint64, error) { return chunkOf(1000, 7), nil })
	if err != nil || len(got) != 1000 || got[0] != 7 {
		t.Fatalf("oversize GetOrLoad = %d addrs, %v", len(got), err)
	}
	if st := c.Stats(); st.ResidentBytes != 0 {
		t.Fatalf("resident bytes after oversize load = %d, want 0", st.ResidentBytes)
	}
}

func TestByteCacheSingleflight(t *testing.T) {
	c := NewSharedChunkCacheBytes(1 << 20)
	v := c.ForTrace("t")
	gate := make(chan struct{})
	var loads int
	var wg sync.WaitGroup
	results := make([][]uint64, 16)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], _ = v.GetOrLoad(7, true, func() ([]uint64, error) {
				<-gate
				loads++ // safe: the cache runs load at most once
				return chunkOf(3, 42), nil
			})
		}(i)
	}
	close(gate)
	wg.Wait()
	if loads != 1 {
		t.Fatalf("load ran %d times, want 1", loads)
	}
	for i, r := range results {
		if len(r) != 3 || r[0] != 42 {
			t.Fatalf("goroutine %d saw %v", i, r)
		}
	}
	if st := v.Stats(); st.Loads != 1 || st.Hits != 15 {
		t.Fatalf("view loads/hits = %d/%d, want 1/15", st.Loads, st.Hits)
	}
}

func TestByteCacheLoadErrorNotCached(t *testing.T) {
	c := NewSharedChunkCacheBytes(1 << 20)
	v := c.ForTrace("t")
	boom := errors.New("backend exploded")
	if _, err := v.GetOrLoad(1, true, func() ([]uint64, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("GetOrLoad error = %v, want %v", err, boom)
	}
	a, err := v.GetOrLoad(1, true, func() ([]uint64, error) { return []uint64{5}, nil })
	if err != nil || len(a) != 1 || a[0] != 5 {
		t.Fatalf("retry after failed load = %v, %v", a, err)
	}
}

func TestByteCacheUnpinnedLoadNotRetained(t *testing.T) {
	c := NewSharedChunkCacheBytes(1 << 20)
	v := c.ForTrace("t")
	loads := 0
	load := func() ([]uint64, error) { loads++; return chunkOf(2, 9), nil }
	if _, err := v.GetOrLoad(3, false, load); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.ResidentChunks != 0 {
		t.Fatalf("unpinned load retained %d chunks, want 0", st.ResidentChunks)
	}
	if _, err := v.GetOrLoad(3, false, load); err != nil {
		t.Fatal(err)
	}
	if loads != 2 {
		t.Fatalf("loads = %d, want 2 (pin=false must not cache)", loads)
	}
}

// TestByteCacheConcurrentBudget hammers one budget from three traces'
// worth of concurrent readers (the -race config of this test is the
// acceptance check for the byte budget): residency must never exceed the
// budget at any observation point.
func TestByteCacheConcurrentBudget(t *testing.T) {
	const budget = 64 * 80 // 64 chunks of 10 addrs
	c := NewSharedChunkCacheBytes(budget)
	stop := make(chan struct{})
	done := make(chan struct{})
	// Observer: polls global occupancy while writers churn.
	violations := make(chan int64, 1)
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if st := c.Stats(); st.ResidentBytes > st.Budget {
				select {
				case violations <- st.ResidentBytes:
				default:
				}
				return
			}
		}
	}()
	var wg sync.WaitGroup
	for trace := 0; trace < 3; trace++ {
		v := c.ForTrace(fmt.Sprintf("t%d", trace))
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(v *TraceChunkCache, g int) {
				defer wg.Done()
				for i := 0; i < 400; i++ {
					id := (g*400 + i) % 97
					_, err := v.GetOrLoad(id, true, func() ([]uint64, error) {
						return chunkOf(10+id%7, uint64(id)), nil
					})
					if err != nil {
						t.Error(err)
						return
					}
				}
			}(v, g)
		}
	}
	wg.Wait()
	close(stop)
	<-done
	select {
	case over := <-violations:
		t.Fatalf("resident bytes reached %d, budget %d", over, budget)
	default:
	}
	if st := c.Stats(); st.ResidentBytes > st.Budget {
		t.Fatalf("final resident bytes %d exceed budget %d", st.ResidentBytes, st.Budget)
	}
}
