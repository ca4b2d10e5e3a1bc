package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net/http"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"
)

// serveResult is what one serve phase measured.
type serveResult struct {
	setupS []float64
	// lat holds every request's client-side latency in seconds; a failed
	// request is +Inf, so it misses every latency limit.
	lat []float64
	ok  int
	// rates are each burst's correct responses per second.
	rates  []float64
	rssMiB float64
	// before and after are atcserve's /metrics around the load.
	before, after prom
	// traced are the requests sent with ?trace=1, untracedLat the
	// latencies of the others (traced runs only).
	traced      []tracedReq
	untracedLat []float64
}

// tracedReq is one request's client latency and atcserve's own stage
// times for it, from the Atc-Trace header.
type tracedReq struct {
	start, end time.Time
	stages     []stageTime
}

type stageTime struct {
	name string
	sec  float64
}

// serving is a running atcserve (and, for a remote workload, the
// atcstatic origin it reads from) with its closed-loop clients.
type serving struct {
	static, srv *proc
	debug       string
	clients     []*client
	res         serveResult
}

// startServing starts the origin if the workload is remote, then starts
// atcserve setups times, timing each start to its first 200 from /addrs,
// and keeps the last one running.
func startServing(ctx context.Context, binDir, dir string, sp spec, seed uint64, arcs []*built, setups int) (_ *serving, err error) {
	s := &serving{}
	defer func() {
		if err != nil {
			s.stop()
		}
	}()
	var sources []string
	if sp.remote {
		origin, err := freeAddr()
		if err != nil {
			return nil, err
		}
		if s.static, err = startProc(filepath.Join(binDir, "atcstatic"), []string{"-addr", origin, dir}, filepath.Join(dir, "atcstatic.log")); err != nil {
			return nil, err
		}
		if err := waitStatus(ctx, s.static, "http://"+origin+"/"+arcs[0].spec.name+".atc", http.StatusOK, 30*time.Second); err != nil {
			return nil, err
		}
		sources = []string{"-remote-block", strconv.Itoa(sp.remoteBlock), "-remote-blocks", strconv.Itoa(remoteBlocks(sp.remoteBlock, arcs))}
		for _, a := range arcs {
			sources = append(sources, "-remote", "http://"+origin+"/"+a.spec.name+".atc")
		}
	} else {
		for _, a := range arcs {
			sources = append(sources, a.path)
		}
	}
	var base string
	for i := 0; i < setups; i++ {
		s.srv.stop()
		s.srv = nil
		if base, err = freeAddr(); err != nil {
			return nil, err
		}
		if s.debug, err = freeAddr(); err != nil {
			return nil, err
		}
		args := append([]string{"-addr", base, "-debug-addr", s.debug,
			"-cache-bytes", strconv.FormatInt(sp.cacheBytes, 10)}, sources...)
		t0 := time.Now()
		if s.srv, err = startProc(filepath.Join(binDir, "atcserve"), args, filepath.Join(dir, "atcserve.log")); err != nil {
			return nil, err
		}
		first := "http://" + base + "/traces/" + arcs[0].spec.name + "/addrs?from=0&to=1"
		if err := waitStatus(ctx, s.srv, first, http.StatusOK, 60*time.Second); err != nil {
			return nil, err
		}
		s.res.setupS = append(s.res.setupS, time.Since(t0).Seconds())
		if err := waitStatus(ctx, s.srv, "http://"+s.debug+"/metrics", http.StatusOK, 10*time.Second); err != nil {
			return nil, err
		}
	}
	if s.res.before, err = scrape("http://" + s.debug + "/metrics"); err != nil {
		return nil, err
	}
	for c := 0; c < sp.clients; c++ {
		s.clients = append(s.clients, newClient("http://"+base, sp, seed, c, arcs))
	}
	return s, nil
}

// burst runs every client until the deadline, byte-checking every
// response. With traced set, half the window requests, drawn at random,
// ask for the Atc-Trace stage breakdown.
func (s *serving) burst(ctx context.Context, until time.Time, traced bool, t *tally) {
	t0 := time.Now()
	var mu sync.Mutex
	var wg sync.WaitGroup
	burstOK := 0
	for _, cl := range s.clients {
		wg.Add(1)
		go func(cl *client) {
			defer wg.Done()
			lat, ok, trs, ulat := cl.run(ctx, until, traced, t)
			mu.Lock()
			s.res.lat = append(s.res.lat, lat...)
			burstOK += ok
			s.res.traced = append(s.res.traced, trs...)
			s.res.untracedLat = append(s.res.untracedLat, ulat...)
			mu.Unlock()
		}(cl)
	}
	wg.Wait()
	s.res.ok += burstOK
	s.res.rates = append(s.res.rates, float64(burstOK)/time.Since(t0).Seconds())
}

// finish reads atcserve's metrics and peak RSS, records the traced
// requests as spans, and stops the processes.
func (s *serving) finish(tr *tracer) (*serveResult, error) {
	defer s.stop()
	var err error
	if s.res.after, err = scrape("http://" + s.debug + "/metrics"); err != nil {
		return nil, err
	}
	if s.res.rssMiB, err = peakRSSMiB(s.srv.pid()); err != nil {
		return nil, err
	}
	for _, r := range s.res.traced {
		root := tr.add("atcserve.request", 0, r.start, r.end, false)
		at := r.start
		for _, st := range r.stages {
			d := time.Duration(st.sec * 1e9)
			tr.add("atcserve."+st.name, root, at, at.Add(d), true)
			at = at.Add(d)
		}
	}
	return &s.res, nil
}

// stop ends the processes and waits for them.
func (s *serving) stop() {
	for _, cl := range s.clients {
		cl.http.CloseIdleConnections()
	}
	s.srv.stop()
	s.static.stop()
	s.srv, s.static = nil, nil
}

// client is one closed-loop user: it sends its next request only after
// the previous response has been read and checked, over one keep-alive
// connection.
type client struct {
	base string
	http *http.Client
	rng  *rand.Rand
	// coin picks the requests a traced run traces. It is its own stream,
	// independent of the request sequence, so traced requests are a fair
	// sample of it.
	coin   *rand.Rand
	sp     spec
	arcs   []*built
	cursor []int64
	zipf   []*rand.Zipf
	// popular maps a Zipf rank to a window slot; it is the same for every
	// client, so the clients share one popular set.
	popular [][]int
	// served counts each archive's correct responses.
	served []int
	body   bytes.Buffer // response payload, reused across requests
}

func newClient(base string, sp spec, seed uint64, id int, arcs []*built) *client {
	c := &client{
		base: base,
		http: &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}},
		rng:  rand.New(rand.NewPCG(seed, uint64(id)+1)),
		coin: rand.New(rand.NewPCG(seed, uint64(id)+1<<32)),
		sp:   sp, arcs: arcs, served: make([]int, len(arcs)),
	}
	for i, a := range arcs {
		slots := (len(a.ref) + sp.window - 1) / sp.window
		c.cursor = append(c.cursor, int64(id*slots/sp.clients*sp.window))
		c.zipf = append(c.zipf, rand.NewZipf(c.rng, 1.1, 1, uint64(slots-1)))
		c.popular = append(c.popular, rand.New(rand.NewPCG(seed, uint64(1000+i))).Perm(slots))
	}
	return c
}

// request is one /addrs call: the window [from, to) of archive arc, and
// for a Range request the inclusive byte range [lo, hi] of its payload.
type request struct {
	arc      int
	from, to int64
	ranged   bool
	lo, hi   int64
}

func (c *client) next() request {
	arc := c.rng.IntN(len(c.arcs))
	n := int64(len(c.arcs[arc].ref))
	w := int64(c.sp.window)
	var r request
	r.arc = arc
	p := c.rng.Float64()
	switch {
	case p < c.sp.mix.seq:
		r.from = c.cursor[arc]
		c.cursor[arc] += w
		if c.cursor[arc] >= n {
			c.cursor[arc] = 0
		}
	default:
		r.from = int64(c.popular[arc][c.zipf[arc].Uint64()]) * w
		r.ranged = p >= c.sp.mix.seq+c.sp.mix.zipf
	}
	r.to = min(r.from+w, n)
	if r.ranged {
		size := (r.to - r.from) * 8
		r.lo = c.rng.Int64N(size)
		r.hi = r.lo + c.rng.Int64N(size-r.lo)
	}
	return r
}

// run sends requests until the deadline and returns every latency, the
// number of correct responses, and in a traced run the traced requests
// and the untraced latencies.
func (c *client) run(ctx context.Context, until time.Time, traced bool, t *tally) (lat []float64, ok int, trs []tracedReq, ulat []float64) {
	for time.Now().Before(until) {
		r := c.next()
		// atcserve answers a traced request with the whole window, never a
		// 206, so Range requests are not traced.
		withTrace := traced && !r.ranged && c.coin.IntN(2) == 1
		start := time.Now()
		hdr, err := c.fetch(ctx, r, withTrace)
		end := time.Now()
		if err != nil {
			err = fmt.Errorf("GET %s [%d,%d) range=%v: %w", c.arcs[r.arc].spec.name, r.from, r.to, r.ranged, err)
		}
		t.record("serve request", err)
		if err != nil {
			lat = append(lat, math.Inf(1))
			continue
		}
		ok++
		c.served[r.arc]++
		d := end.Sub(start).Seconds()
		lat = append(lat, d)
		if !traced {
			continue
		}
		if !withTrace {
			// Range requests decode only a covering sub-window and are
			// never traced, so only whole-window requests are compared.
			if !r.ranged {
				ulat = append(ulat, d)
			}
			continue
		}
		stages, err := parseAtcTrace(hdr)
		t.record("Atc-Trace header", err)
		if err == nil {
			trs = append(trs, tracedReq{start: start, end: end, stages: stages})
		}
	}
	return
}

// fetch performs r and checks the payload byte for byte against the
// reference trace. It returns the Atc-Trace header when one was asked for.
func (c *client) fetch(ctx context.Context, r request, withTrace bool) (string, error) {
	a := c.arcs[r.arc]
	url := fmt.Sprintf("%s/traces/%s/addrs?from=%d&to=%d", c.base, a.spec.name, r.from, r.to)
	if withTrace {
		url += "&trace=1"
	}
	ctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return "", err
	}
	want := http.StatusOK
	if r.ranged {
		req.Header.Set("Range", fmt.Sprintf("bytes=%d-%d", r.lo, r.hi))
		want = http.StatusPartialContent
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	c.body.Reset()
	if _, err := c.body.ReadFrom(resp.Body); err != nil {
		return "", err
	}
	if resp.StatusCode != want {
		return "", fmt.Errorf("status %d, want %d", resp.StatusCode, want)
	}
	lo, hi := int64(0), 8*(r.to-r.from)-1
	if r.ranged {
		lo, hi = r.lo, r.hi
	}
	if err := checkPayload(c.body.Bytes(), a.ref[r.from:r.to], lo, hi); err != nil {
		return "", err
	}
	return resp.Header.Get("Atc-Trace"), nil
}

// checkPayload checks that body is bytes [lo, hi] of the /addrs wire
// format of xs (8-byte little-endian values), without building it.
func checkPayload(body []byte, xs []uint64, lo, hi int64) error {
	if int64(len(body)) != hi-lo+1 {
		return fmt.Errorf("payload has %d bytes, want %d", len(body), hi-lo+1)
	}
	var b [8]byte
	for k := lo / 8; k <= hi/8; k++ {
		binary.LittleEndian.PutUint64(b[:], xs[k])
		s, e := max(8*k, lo), min(8*k+8, hi+1)
		if !bytes.Equal(body[s-lo:e-lo], b[s-8*k:e-8*k]) {
			return fmt.Errorf("payload differs from the reference at address %d", k)
		}
	}
	return nil
}

// parseAtcTrace reads an Atc-Trace header such as
// "wait=12µs index=3µs fetch=1.2ms decompress=8.4ms translate=0s deliver=410µs chunks=3 hits=1".
func parseAtcTrace(h string) ([]stageTime, error) {
	if h == "" {
		return nil, fmt.Errorf("no Atc-Trace header")
	}
	var out []stageTime
	for _, f := range strings.Fields(h) {
		k, v, ok := strings.Cut(f, "=")
		if !ok {
			return nil, fmt.Errorf("bad Atc-Trace field %q", f)
		}
		if k == "chunks" || k == "hits" {
			continue
		}
		d, err := time.ParseDuration(v)
		if err != nil {
			return nil, fmt.Errorf("bad Atc-Trace stage %q: %w", f, err)
		}
		out = append(out, stageTime{name: k, sec: d.Seconds()})
	}
	return out, nil
}

// prom is a Prometheus text exposition: series ("name{labels}") to value.
type prom map[string]float64

func scrape(url string) (prom, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return parseProm(resp.Body)
}

// parseProm reads a Prometheus text exposition.
func parseProm(r io.Reader) (prom, error) {
	p := prom{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		p[line[:i]] = v
	}
	return p, sc.Err()
}

// sum adds the series of metric name whose labels contain every one of
// labels (each written as key="value").
func (p prom) sum(name string, labels ...string) float64 {
	total := 0.0
	for series, v := range p {
		n, lbl, _ := strings.Cut(series, "{")
		if n != name {
			continue
		}
		match := true
		for _, l := range labels {
			if !strings.Contains(lbl, l) {
				match = false
			}
		}
		if match {
			total += v
		}
	}
	return total
}

// delta is after − before for one metric.
func (r *serveResult) delta(name string, labels ...string) float64 {
	return r.after.sum(name, labels...) - r.before.sum(name, labels...)
}
