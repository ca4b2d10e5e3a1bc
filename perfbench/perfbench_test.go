package main

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"atc/internal/store"
)

// digestEnv names a scratch directory; when it is set, the test binary
// prints the digest of a lossy encode and decode made there and exits.
const digestEnv = "PERFBENCH_DIGEST_CHILD"

// TestMain lets the test binary serve as the codec child, as the
// benchmark binary does, and as the lossy digest child.
func TestMain(m *testing.M) {
	if job := os.Getenv(childEnv); job != "" {
		if err := runChild(job); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	if dir := os.Getenv(digestEnv); dir != "" {
		d, err := lossyDigest(dir)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Println(d)
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// lossyDigest makes the shrunk lossy-recurring input, encodes it into an
// archive in dir, decodes it, and returns the decode's digest.
func lossyDigest(dir string) (string, error) {
	a := small(workloads["lossy-recurring"]).archives[0]
	in, err := a.generate(7)
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, "lossy.atc")
	if _, _, err := encodeArchive(path, sliceSource(in), a.options(), nil); err != nil {
		return "", err
	}
	_, _, got, err := decodeArchive(path, nil, nil, nil)
	if err != nil {
		return "", err
	}
	if len(got) != len(in) {
		return "", fmt.Errorf("lossy decode has %d addresses, input %d", len(got), len(in))
	}
	return digest(got), nil
}

// TestLossyDigestAcrossRuns checks that two runs of the lossy pipeline in
// separate processes, from the same seed, decode to the same trace: the
// benchmark's lossy reference is its run's first decode, so this is what
// makes that reference the same from run to run.
func TestLossyDigestAcrossRuns(t *testing.T) {
	var digests []string
	for i := 0; i < 2; i++ {
		cmd := exec.Command(os.Args[0], "-test.run=^$")
		cmd.Env = append(os.Environ(), digestEnv+"="+t.TempDir())
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("digest child %d: %v", i, err)
		}
		digests = append(digests, strings.TrimSpace(string(out)))
	}
	if len(digests[0]) != 64 || digests[0] != digests[1] {
		t.Errorf("lossy digests of two runs: %q and %q", digests[0], digests[1])
	}
}

// declared reads the metric and workload names BENCHMARK.json declares.
func declared(t *testing.T) (workloadNames []string, endToEnd, perLayer map[string]string) {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, w := range bj.Workloads {
		workloadNames = append(workloadNames, w.Name)
	}
	for _, m := range bj.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range bj.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return workloadNames, endToEnd, perLayer
}

// TestDeclaredMetricsMatch checks that the workloads and the metric names
// and units the benchmark reports are exactly those BENCHMARK.json declares.
func TestDeclaredMetricsMatch(t *testing.T) {
	names, e2e, layers := declared(t)
	got := workloadNames()
	slices.Sort(got)
	slices.Sort(names)
	if !slices.Equal(got, names) {
		t.Errorf("workloads %v, BENCHMARK.json declares %v", got, names)
	}
	for _, c := range []struct {
		defs []metricDef
		want map[string]string
	}{{endToEnd, e2e}, {perLayer, layers}} {
		if len(c.defs) != len(c.want) {
			t.Errorf("%d metrics reported, %d declared", len(c.defs), len(c.want))
		}
		for _, d := range c.defs {
			if u, ok := c.want[d.name]; !ok || u != d.unit {
				t.Errorf("metric %s (%s): declared unit %q", d.name, d.unit, u)
			}
		}
	}
}

// small shrinks a workload so a smoke run takes seconds.
func small(sp spec) spec {
	arcs := make([]archiveSpec, len(sp.archives))
	for i, a := range sp.archives {
		a.perModel /= 32
		a.segment /= 32
		a.interval /= 4
		a.cycles = 4
		arcs[i] = a
	}
	sp.archives = arcs
	sp.window /= 4
	sp.cacheBytes /= 16
	sp.setups = min(sp.setups, 2)
	return sp
}

// buildServers compiles atcserve and atcstatic from the repository.
func buildServers(t *testing.T) string {
	t.Helper()
	bin := t.TempDir()
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/atcserve", "./cmd/atcstatic")
	cmd.Dir = ".."
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	return bin
}

// TestSmoke runs every workload, shrunk, untraced and traced, and checks
// that every correctness and replay check passes and that the printed
// metrics are exactly the declared ones.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs servers")
	}
	_, e2e, layers := declared(t)
	bin := buildServers(t)
	for name, sp := range workloads {
		for _, traced := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", name, traced), func(t *testing.T) {
				o := options{workload: name, seed: 7, seconds: 2, trace: traced, bin: bin, work: t.TempDir()}
				res, info, err := run(context.Background(), o, small(sp))
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				want := e2e
				if traced {
					want = layers
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics printed, %d declared", len(res.Metrics), len(want))
				}
				for n, v := range res.Metrics {
					if want[n] != v.Unit {
						t.Errorf("metric %s printed with unit %q, declared %q", n, v.Unit, want[n])
					}
					if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
						t.Errorf("metric %s = %v", n, v.Value)
					}
				}
				if traced {
					if _, err := os.Stat(info["spans"].(string)); err != nil {
						t.Errorf("span file: %v", err)
					}
				}
			})
		}
	}
}

// TestCorruptResponseCounted serves windows with one wrong byte, and a
// Range request answered with 200, and checks both count as failures.
func TestCorruptResponseCounted(t *testing.T) {
	ref := make([]uint64, 256)
	for i := range ref {
		ref[i] = uint64(i) * 64
	}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		from, _ := strconv.Atoi(r.URL.Query().Get("from"))
		to, _ := strconv.Atoi(r.URL.Query().Get("to"))
		b := windowBytes(ref[from:to])
		if from == 32 {
			b[5] ^= 1
		}
		w.Write(b) // a Range header is ignored: 200, whole window
	}))
	defer srv.Close()
	arcs := []*built{{spec: archiveSpec{name: "x"}, ref: ref}}
	sp := spec{window: 16, mix: mix{seq: 0.5, zipf: 0.3}, clients: 1}
	var tl tally
	c := newClient(srv.URL, sp, 1, 0, arcs)
	lat, ok, _, _ := c.run(context.Background(), time.Now().Add(300*time.Millisecond), false, &tl)
	failed := tl.failed.Load()
	if failed == 0 || int64(ok)+failed != tl.attempted.Load() {
		t.Fatalf("ok=%d failed=%d attempted=%d: corrupt responses not all counted", ok, failed, tl.attempted.Load())
	}
	inf := 0
	for _, l := range lat {
		if math.IsInf(l, 1) {
			inf++
		}
	}
	if int64(inf) != failed {
		t.Errorf("%d failed requests but %d +Inf latencies", failed, inf)
	}
}

// TestCorruptBlobCounted flips a byte in one chunk blob of a valid
// archive and checks that the decode and the replay both count failures.
func TestCorruptBlobCounted(t *testing.T) {
	dir := t.TempDir()
	as := archiveSpec{name: "c", models: []string{"429.mcf"}, perModel: 16 << 10, segment: 4 << 10}
	in, err := as.generate(3)
	if err != nil {
		t.Fatal(err)
	}
	a := &built{spec: as, input: in, path: filepath.Join(dir, "good.atc")}
	if _, a.stats, err = encodeArchive(a.path, sliceSource(in), as.options(), nil); err != nil {
		t.Fatal(err)
	}
	// Copy the archive blob by blob, corrupting chunk 2, so the archive's
	// own checksums still hold and only the content is wrong.
	src, err := store.OpenArchive(a.path)
	if err != nil {
		t.Fatal(err)
	}
	names, err := src.List()
	if err != nil {
		t.Fatal(err)
	}
	bad := filepath.Join(dir, "bad.atc")
	dst, err := store.CreateArchive(bad)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range names {
		b, err := store.ReadBlob(src, n)
		if err != nil {
			t.Fatal(err)
		}
		if n == chunkName(2) {
			b[len(b)/2] ^= 0x40
		}
		if err := store.WriteBlob(dst, n, b); err != nil {
			t.Fatal(err)
		}
	}
	src.Close()
	if err := dst.Close(); err != nil {
		t.Fatal(err)
	}
	a.path = bad

	var tl tally
	var s codecSamples
	decodeRep([]*built{a}, &tl, &s)
	if tl.failed.Load() != 1 {
		t.Errorf("decode of a corrupt archive: %d failures, want 1", tl.failed.Load())
	}
	var rt tally
	var c counts
	replayArchive(nil, dir, a, in, &rt, &c)
	if rt.failed.Load() < 2 {
		t.Errorf("replay against a corrupt blob: %d failures, want the blob and CompressSize checks at least", rt.failed.Load())
	}
}

// windowBytes is the /addrs wire format of xs: 8-byte little-endian values.
func windowBytes(xs []uint64) []byte {
	b := make([]byte, 8*len(xs))
	for i, x := range xs {
		binary.LittleEndian.PutUint64(b[8*i:], x)
	}
	return b
}
