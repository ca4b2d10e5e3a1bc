package store

import (
	"bytes"
	"container/list"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// rangeHost serves one in-memory object with manually implemented single-
// range semantics, instrumented for the tests: request/range capture, an
// injectable run of 503s, a gate that parks requests (to prove
// singleflight), and mutable payload/ETag (to prove mid-session change
// detection).
type rangeHost struct {
	mu       sync.Mutex
	data     []byte
	etag     string
	noHead   bool
	failures int // next N data GETs answer 503

	requests atomic.Int64 // data GETs served (not HEAD)
	ranges   []string     // Range headers seen on data GETs
	gate     chan struct{}
}

func (h *rangeHost) set(data []byte, etag string) {
	h.mu.Lock()
	h.data = data
	h.etag = etag
	h.mu.Unlock()
}

func (h *rangeHost) seenRanges() []string {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]string(nil), h.ranges...)
}

func (h *rangeHost) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	h.mu.Lock()
	data, etag := h.data, h.etag
	h.mu.Unlock()
	if r.Method == http.MethodHead {
		if h.noHead {
			w.WriteHeader(http.StatusMethodNotAllowed)
			return
		}
		if etag != "" {
			w.Header().Set("Etag", etag)
		}
		w.Header().Set("Content-Length", strconv.Itoa(len(data)))
		return
	}
	h.mu.Lock()
	h.requests.Add(1)
	h.ranges = append(h.ranges, r.Header.Get("Range"))
	fail := h.failures > 0
	if fail {
		h.failures--
	}
	h.mu.Unlock()
	if h.gate != nil {
		<-h.gate
	}
	if fail {
		http.Error(w, "injected", http.StatusServiceUnavailable)
		return
	}
	if im := r.Header.Get("If-Match"); im != "" && etag != "" && im != etag {
		w.WriteHeader(http.StatusPreconditionFailed)
		return
	}
	rng := r.Header.Get("Range")
	if rng == "" {
		if etag != "" {
			w.Header().Set("Etag", etag)
		}
		w.Write(data)
		return
	}
	span, ok := strings.CutPrefix(rng, "bytes=")
	if !ok {
		w.WriteHeader(http.StatusBadRequest)
		return
	}
	loStr, hiStr, _ := strings.Cut(span, "-")
	lo, _ := strconv.ParseInt(loStr, 10, 64)
	hi, _ := strconv.ParseInt(hiStr, 10, 64)
	if lo >= int64(len(data)) {
		w.WriteHeader(http.StatusRequestedRangeNotSatisfiable)
		return
	}
	if hi >= int64(len(data)) {
		hi = int64(len(data)) - 1
	}
	if etag != "" {
		w.Header().Set("Etag", etag)
	}
	w.Header().Set("Content-Range", fmt.Sprintf("bytes %d-%d/%d", lo, hi, len(data)))
	w.WriteHeader(http.StatusPartialContent)
	w.Write(data[lo : hi+1])
}

func testObject(n int) []byte {
	data := make([]byte, n)
	for i := range data {
		data[i] = byte(i * 7)
	}
	return data
}

func newRemoteReader(t *testing.T, h *rangeHost, blockSize, cacheBlocks, retries int) (*RangeReaderAt, *httptest.Server) {
	t.Helper()
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)
	h.mu.Lock()
	size, etag := int64(len(h.data)), h.etag
	h.mu.Unlock()
	return &RangeReaderAt{
		url:        srv.URL,
		client:     srv.Client(),
		size:       size,
		etag:       etag,
		blockSize:  int64(blockSize),
		retries:    retries,
		retryDelay: time.Millisecond,
		// maxPrefetch stays 0 (readahead off): these tests pin exact
		// demand-fetch request counts; sequential readahead has its own
		// tests (prefetch_test.go).
		cache:    blockLRU{cap: cacheBlocks, m: map[int64]*list.Element{}},
		inflight: map[int64]*blockFetch{},
	}, srv
}

func TestRangeReaderAtBasic(t *testing.T) {
	data := testObject(10_000)
	h := &rangeHost{data: data, etag: `"v1"`}
	ra, _ := newRemoteReader(t, h, 1024, 64, 0)

	got := make([]byte, 3000)
	if n, err := ra.ReadAt(got, 500); err != nil || n != 3000 {
		t.Fatalf("ReadAt = %d, %v", n, err)
	}
	if !bytes.Equal(got, data[500:3500]) {
		t.Fatal("ReadAt bytes diverge")
	}
	// Blocks 0..3 were fetched in one coalesced GET with an aligned start.
	if n := h.requests.Load(); n != 1 {
		t.Fatalf("requests = %d, want 1 coalesced fetch", n)
	}
	if rngs := h.seenRanges(); len(rngs) != 1 || rngs[0] != "bytes=0-4095" {
		t.Fatalf("ranges = %v, want [bytes=0-4095]", rngs)
	}
	// Same window again: all cache hits, no new requests.
	if _, err := ra.ReadAt(got, 500); err != nil {
		t.Fatal(err)
	}
	if n := h.requests.Load(); n != 1 {
		t.Fatalf("requests after cached re-read = %d, want 1", n)
	}
	// Tail read past EOF returns the short count with io.EOF.
	tail := make([]byte, 100)
	n, err := ra.ReadAt(tail, int64(len(data))-40)
	if n != 40 || err != io.EOF {
		t.Fatalf("tail ReadAt = %d, %v, want 40, EOF", n, err)
	}
	if !bytes.Equal(tail[:40], data[len(data)-40:]) {
		t.Fatal("tail bytes diverge")
	}
	if _, err := ra.ReadAt(tail, int64(len(data))); err != io.EOF {
		t.Fatalf("ReadAt at EOF err = %v, want EOF", err)
	}
	if _, err := ra.ReadAt(tail, -1); !errors.Is(err, ErrRemote) {
		t.Fatalf("negative offset err = %v, want ErrRemote", err)
	}
}

func TestRangeReaderAtCoalescing(t *testing.T) {
	data := testObject(64 << 10)
	h := &rangeHost{data: data}
	ra, _ := newRemoteReader(t, h, 4096, 64, 0)

	// Warm one block in the middle; the next read spanning it must split
	// into two runs around the cached block, not refetch it.
	one := make([]byte, 10)
	if _, err := ra.ReadAt(one, 3*4096); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 6*4096)
	if _, err := ra.ReadAt(got, 4096); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data[4096:7*4096]) {
		t.Fatal("bytes diverge")
	}
	want := []string{"bytes=12288-16383", "bytes=4096-12287", "bytes=16384-28671"}
	rngs := h.seenRanges()
	if len(rngs) != 3 {
		t.Fatalf("ranges = %v, want 3 fetches (runs split around the cached block)", rngs)
	}
	for i, w := range want {
		if rngs[i] != w {
			t.Fatalf("ranges = %v, want %v", rngs, want)
		}
	}
}

func TestRangeReaderAtSingleflight(t *testing.T) {
	data := testObject(8192)
	h := &rangeHost{data: data, gate: make(chan struct{})}
	ra, _ := newRemoteReader(t, h, 4096, 64, 0)

	const readers = 8
	var wg sync.WaitGroup
	errs := make([]error, readers)
	bufs := make([][]byte, readers)
	for i := 0; i < readers; i++ {
		i := i
		bufs[i] = make([]byte, 1000)
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[i] = ra.ReadAt(bufs[i], 100)
		}()
	}
	// Let every goroutine reach the fetch-or-wait decision, then open the
	// gate: only the single claimed fetch should have been issued.
	for h.requests.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond)
	close(h.gate)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("reader %d: %v", i, err)
		}
		if !bytes.Equal(bufs[i], data[100:1100]) {
			t.Fatalf("reader %d bytes diverge", i)
		}
	}
	if n := h.requests.Load(); n != 1 {
		t.Fatalf("requests = %d, want 1 (singleflight)", n)
	}
}

func TestRangeReaderAtLRU(t *testing.T) {
	data := testObject(16 << 10)
	h := &rangeHost{data: data}
	ra, _ := newRemoteReader(t, h, 1024, 2, 0)

	read := func(block int64) {
		t.Helper()
		buf := make([]byte, 10)
		if _, err := ra.ReadAt(buf, block*1024); err != nil {
			t.Fatal(err)
		}
	}
	read(0) // cache: {0}
	read(1) // cache: {0,1}
	read(0) // touch 0 — 1 is now least recently used
	read(2) // evicts 1 (LRU), not 0 (FIFO would)
	before := h.requests.Load()
	read(0)
	if n := h.requests.Load(); n != before {
		t.Fatalf("block 0 refetched after eviction pass: %d -> %d requests (FIFO, want LRU)", before, n)
	}
	read(1)
	if n := h.requests.Load(); n != before+1 {
		t.Fatalf("block 1 should have been evicted: requests %d -> %d", before, n)
	}
}

func TestRangeReaderAtRetry(t *testing.T) {
	data := testObject(4096)
	h := &rangeHost{data: data, failures: 2}
	ra, _ := newRemoteReader(t, h, 1024, 8, 2)

	buf := make([]byte, 100)
	if _, err := ra.ReadAt(buf, 0); err != nil {
		t.Fatalf("ReadAt with 2 injected 503s and 2 retries: %v", err)
	}
	if !bytes.Equal(buf, data[:100]) {
		t.Fatal("bytes diverge after retries")
	}
	if n := h.requests.Load(); n != 3 {
		t.Fatalf("requests = %d, want 3 (two 503s then success)", n)
	}
	// With retries exhausted the error is ErrRemote and non-nil.
	h.mu.Lock()
	h.failures = 5
	h.mu.Unlock()
	if _, err := ra.ReadAt(buf, 2048); !errors.Is(err, ErrRemote) {
		t.Fatalf("exhausted retries err = %v, want ErrRemote", err)
	}
}

func TestRangeReaderAtETagChange(t *testing.T) {
	data := testObject(8192)
	h := &rangeHost{data: data, etag: `"v1"`}
	ra, _ := newRemoteReader(t, h, 1024, 8, 0)

	buf := make([]byte, 100)
	if _, err := ra.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	// The object is replaced mid-session: the next uncached read must fail
	// as ErrCorrupt (the server rejects If-Match with 412).
	h.set(testObject(8192), `"v2"`)
	if _, err := ra.ReadAt(buf, 4096); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("ETag change err = %v, want ErrCorrupt", err)
	}
}

func TestRangeReaderAtSizeChange(t *testing.T) {
	// No ETag: consistency degrades to Content-Range total validation, so
	// a replaced (resized) object still fails as ErrCorrupt.
	data := testObject(8192)
	h := &rangeHost{data: data}
	ra, _ := newRemoteReader(t, h, 1024, 8, 0)

	buf := make([]byte, 100)
	if _, err := ra.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	h.set(testObject(4000), "")
	if _, err := ra.ReadAt(buf, 2048); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("size change err = %v, want ErrCorrupt", err)
	}
}

// readBlob fetches a blob's full contents through a store's Open path.
func readBlob(t *testing.T, s Store, name string) []byte {
	t.Helper()
	b, err := s.Open(name)
	if err != nil {
		t.Fatalf("Open %s: %v", name, err)
	}
	defer b.Close()
	data, err := io.ReadAll(b)
	if err != nil {
		t.Fatalf("read %s: %v", name, err)
	}
	return data
}

func TestOpenRemoteArchive(t *testing.T) {
	// End to end over a real archive: OpenRemote must list and read blobs
	// byte-identically to the local archive.
	blobs := map[string][]byte{
		"MANIFEST":    []byte("mode=lossless\n"),
		"INFO.bytes":  testObject(100),
		"0.lossless":  testObject(70_000),
		"1.lossless":  testObject(33_333),
		"10.lossless": testObject(5),
	}
	raw := writeTestArchive(t, blobs)
	local, err := openBytes(raw)
	if err != nil {
		t.Fatal(err)
	}
	defer local.Close()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// http.ServeContent implements Range with no ETag (like a bare
		// static server): the reader must cope without a validator.
		http.ServeContent(w, r, "t.atc", time.Time{}, bytes.NewReader(raw))
	}))
	defer srv.Close()

	rs, err := OpenRemote(srv.URL, RemoteOptions{BlockSize: 8 << 10, CacheBlocks: 16, Client: srv.Client()})
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	names, err := rs.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 5 {
		t.Fatalf("List = %v", names)
	}
	for _, name := range names {
		want := readBlob(t, local, name)
		got := readBlob(t, rs, name)
		if !bytes.Equal(got, want) {
			t.Fatalf("blob %s diverges: %d vs %d bytes", name, len(got), len(want))
		}
	}
	// Writes must be refused: this store is read-only by construction.
	if _, err := rs.Create("new"); err == nil {
		t.Fatal("Create on a RemoteStore succeeded")
	}
	if err := rs.Remove("MANIFEST"); err == nil {
		t.Fatal("Remove on a RemoteStore succeeded")
	}
	if rs.URL() != srv.URL {
		t.Fatalf("URL = %q", rs.URL())
	}
	if st := rs.ReaderStats(); st.Fetches == 0 || st.BytesFetched == 0 {
		t.Fatalf("stats = %+v, want nonzero traffic", st)
	}
}

func TestOpenRemoteProbeFallback(t *testing.T) {
	// A server refusing HEAD must still open via the ranged-GET probe.
	raw := writeTestArchive(t, map[string][]byte{
		"MANIFEST":   []byte("mode=lossless\n"),
		"0.lossless": testObject(10_000),
	})
	h := &rangeHost{noHead: true}
	h.set(raw, `"v1"`)
	srv := httptest.NewServer(h)
	defer srv.Close()

	rs, err := OpenRemote(srv.URL, RemoteOptions{Client: srv.Client()})
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	if got := readBlob(t, rs, "0.lossless"); !bytes.Equal(got, testObject(10_000)) {
		t.Fatal("blob bytes diverge through the fallback probe")
	}
	if rs.ra.ETag() != `"v1"` || rs.ra.Size() != int64(len(raw)) {
		t.Fatalf("probe captured etag=%q size=%d", rs.ra.ETag(), rs.ra.Size())
	}
}

func TestOpenRemoteErrors(t *testing.T) {
	if _, err := OpenRemote("ftp://host/x.atc", RemoteOptions{}); !errors.Is(err, ErrRemote) {
		t.Fatalf("non-http URL err = %v, want ErrRemote", err)
	}
	notFound := httptest.NewServer(http.NotFoundHandler())
	defer notFound.Close()
	if _, err := OpenRemote(notFound.URL, RemoteOptions{Client: notFound.Client()}); !errors.Is(err, ErrRemote) {
		t.Fatalf("404 err = %v, want ErrRemote", err)
	}
	// A server answering 200 to ranged requests cannot back a RemoteStore.
	full := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodHead {
			w.WriteHeader(http.StatusMethodNotAllowed)
			return
		}
		w.Write(testObject(100))
	}))
	defer full.Close()
	if _, err := OpenRemote(full.URL, RemoteOptions{Client: full.Client()}); !errors.Is(err, ErrRemote) {
		t.Fatalf("no-Range server err = %v, want ErrRemote", err)
	}
}

func TestParseContentRange(t *testing.T) {
	off, total, err := parseContentRange("bytes 100-199/5000")
	if err != nil || off != 100 || total != 5000 {
		t.Fatalf("parseContentRange = %d, %d, %v", off, total, err)
	}
	for _, bad := range []string{"", "bytes */5000", "bytes 100-199/*", "100-199/5000", "bytes x-y/z"} {
		if _, _, err := parseContentRange(bad); !errors.Is(err, ErrCorrupt) {
			t.Errorf("parseContentRange(%q) err = %v, want ErrCorrupt", bad, err)
		}
	}
}

func TestIsRemoteURL(t *testing.T) {
	for url, want := range map[string]bool{
		"http://h/x.atc":  true,
		"https://h/x.atc": true,
		"/tmp/x.atc":      false,
		"httpx://h":       false,
	} {
		if got := IsRemoteURL(url); got != want {
			t.Errorf("IsRemoteURL(%q) = %v, want %v", url, got, want)
		}
	}
}
