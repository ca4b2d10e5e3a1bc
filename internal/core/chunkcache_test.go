package core

// Tests of how Decompressors decode through the chunk cache: the private
// cache built at Open, a SharedChunkCacheBytes view shared by a pool, and
// the process-wide hit counter.

import (
	"errors"
	"sync"
	"testing"
)

// TestSharedCacheExactlyOncePerPool is the shared cache's core guarantee:
// a pool of Decompressors sharing one trace view and hammering the same
// hot window decompresses each touched chunk exactly once across the
// whole pool — under the race detector, with every reader running
// concurrently.
func TestSharedCacheExactlyOncePerPool(t *testing.T) {
	addrs := rangeTrace()
	dir := t.TempDir()
	if _, err := WriteTrace(dir, addrs, Options{Mode: Lossless, BufferAddrs: 200, SegmentAddrs: 1500}); err != nil {
		t.Fatal(err)
	}
	shared := NewSharedChunkCacheBytes(32 * 1500 * 8).ForTrace("t")
	const readers = 8
	pool := make([]*Decompressor, readers)
	for i := range pool {
		d, err := Open(dir, DecodeOptions{ChunkCache: shared})
		if err != nil {
			t.Fatal(err)
		}
		defer d.Close()
		pool[i] = d
	}
	// The hot window [2000, 5000) straddles segments 1, 2 and 3 (1500
	// addresses each: spans [1500,3000), [3000,4500), [4500,6000)).
	const from, to = 2000, 5000
	const rounds = 4
	var wg sync.WaitGroup
	errs := make(chan error, readers*rounds)
	for _, d := range pool {
		d := d
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				got, err := d.DecodeRange(from, to)
				if err != nil {
					errs <- err
					return
				}
				for j, v := range got {
					if v != addrs[from+j] {
						errs <- errors.New("decoded window diverges")
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	var total int64
	for _, d := range pool {
		total += d.ChunkReads()
	}
	if total != 3 {
		t.Fatalf("pool-wide chunk reads = %d, want 3 (one per chunk under the window, exactly once across %d readers x %d rounds)",
			total, readers, rounds)
	}
	if st := shared.Stats(); st.Loads != 3 {
		t.Fatalf("shared cache loads = %d, want 3", st.Loads)
	}
}

// windowOfChunks returns the end of the shortest trace prefix [0, end)
// whose spans are backed by exactly k distinct chunks (imitations share
// their source chunk), or -1 when the trace has fewer.
func windowOfChunks(d *Decompressor, k int) int64 {
	seen := map[int]bool{}
	for _, sp := range d.ChunkIndex() {
		seen[sp.ChunkID] = true
		if len(seen) == k {
			return sp.End
		}
	}
	return -1
}

// TestPrivateChunkCacheHoldsChunkCacheSize pins the private default:
// ChunkCacheSize n keeps n full-stride chunks resident — a second pass
// over a window of n chunks reads nothing — while a window of n+1 chunks
// evicts and re-reads.
func TestPrivateChunkCacheHoldsChunkCacheSize(t *testing.T) {
	addrs := rangeTrace()
	cases := []struct {
		name string
		opts Options
		n    int
	}{
		{"lossy/1", Options{Mode: Lossy, IntervalLen: 1000, BufferAddrs: 200}, 1},
		{"lossy/3", Options{Mode: Lossy, IntervalLen: 1000, BufferAddrs: 200}, 3},
		{"segmented/1", Options{Mode: Lossless, BufferAddrs: 200, SegmentAddrs: 1500}, 1},
		{"segmented/4", Options{Mode: Lossless, BufferAddrs: 200, SegmentAddrs: 1500}, 4},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			if _, err := WriteTrace(dir, addrs, c.opts); err != nil {
				t.Fatal(err)
			}
			for _, k := range []int{c.n, c.n + 1} {
				d, err := Open(dir, DecodeOptions{ChunkCacheSize: c.n})
				if err != nil {
					t.Fatal(err)
				}
				end := windowOfChunks(d, k)
				if end < 0 {
					t.Fatalf("trace has fewer than %d chunks", k)
				}
				if _, err := d.DecodeRange(0, end); err != nil {
					t.Fatal(err)
				}
				first := d.ChunkReads()
				if first != int64(k) {
					t.Fatalf("first pass over %d chunks read %d", k, first)
				}
				if _, err := d.DecodeRange(0, end); err != nil {
					t.Fatal(err)
				}
				reread := d.ChunkReads() - first
				d.Close()
				if k == c.n && reread != 0 {
					t.Fatalf("ChunkCacheSize %d: second pass over %d chunks re-read %d", c.n, k, reread)
				}
				if k > c.n && reread == 0 {
					t.Fatalf("ChunkCacheSize %d: %d chunks all stayed resident, want eviction", c.n, k)
				}
			}
		})
	}
}

// TestChunkCacheHitMetric checks that atc_decode_chunk_cache_hits_total
// counts each cache hit exactly once, on the random-access path and on
// the readahead pipeline's peek at resident never-imitated chunks alike.
func TestChunkCacheHitMetric(t *testing.T) {
	cases := []struct {
		name  string
		addrs []uint64
		opts  Options
	}{
		{"lossy", mixedLossyTrace(2000, 2, 4), Options{Mode: Lossy, IntervalLen: 2000, BufferAddrs: 400}},
		{"segmented", rangeTrace(), Options{Mode: Lossless, BufferAddrs: 200, SegmentAddrs: 1500}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			if _, err := WriteTrace(dir, c.addrs, c.opts); err != nil {
				t.Fatal(err)
			}
			view := NewSharedChunkCacheBytes(1 << 20).ForTrace("t")
			d, err := Open(dir, DecodeOptions{ChunkCache: view, Readahead: 2})
			if err != nil {
				t.Fatal(err)
			}
			defer d.Close()
			metBefore, hitsBefore := metChunkCacheHits.Value(), view.Stats().Hits
			// Two range passes pin every chunk; the sequential pass
			// after them finds never-imitated lossy chunks resident.
			total := int64(len(c.addrs))
			for pass := 0; pass < 2; pass++ {
				if _, err := d.DecodeRange(0, total); err != nil {
					t.Fatal(err)
				}
			}
			if err := d.SeekTo(0); err != nil {
				t.Fatal(err)
			}
			if _, err := d.DecodeAll(); err != nil {
				t.Fatal(err)
			}
			hits := view.Stats().Hits - hitsBefore
			if hits == 0 {
				t.Fatal("no cache hits over repeated passes")
			}
			if got := metChunkCacheHits.Value() - metBefore; got != hits {
				t.Fatalf("hit metric rose by %d over %d cache hits", got, hits)
			}
		})
	}
}
