// Command perfbench is the repository's benchmark. One run measures one
// workload for a fixed time and prints, as the last line of its standard
// output, one JSON object: the end-to-end metrics with -trace 0, the
// per-layer metrics with -trace 1. Every output the program produces
// during the run is checked; the object's failed count says how many
// checks failed. Run it through run.sh, which builds everything first:
//
//	bash perfbench/run.sh --workload lossless-archive --seed 1 --seconds 20 --trace 0
//
// README.md describes the workloads, the metrics and how they relate.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"slices"
	"syscall"
	"time"
)

// options are one run's command-line settings.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	bin      string // directory holding the atcserve and atcstatic binaries
	work     string // scratch directory; span files go under it
}

func main() {
	if job := os.Getenv(childEnv); job != "" {
		if err := runChild(job); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench codec child:", err)
			os.Exit(1)
		}
		return
	}
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload to run")
	flag.Uint64Var(&o.seed, "seed", 1, "seed the workload's inputs are made from")
	flag.Float64Var(&o.seconds, "seconds", 20, "how long the run measures")
	flag.IntVar(&trace, "trace", 0, "1 reports the per-layer metrics of a traced run instead of the end-to-end metrics")
	flag.StringVar(&o.bin, "bin", "", "directory holding the atcserve and atcstatic binaries")
	flag.StringVar(&o.work, "work", "", "scratch directory for archives and span files")
	flag.Parse()
	o.trace = trace == 1
	sp, ok := workloads[o.workload]
	if !ok || o.bin == "" || o.work == "" || o.seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (one of %s), -bin, -work, -seconds > 0 and -trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	res, info, err := run(ctx, o, sp)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.Encode(info)
	enc.Encode(res)
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	return names
}

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the benchmark ends with.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// run makes the workload's inputs, measures it for o.seconds, and returns
// the result line and a line of run details printed before it.
func run(ctx context.Context, o options, sp spec) (*result, map[string]any, error) {
	dir := filepath.Join(o.work, fmt.Sprintf("%s-%d", o.workload, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(dir)
	arcs := make([]*built, len(sp.archives))
	for i, as := range sp.archives {
		in, err := as.generate(o.seed)
		if err != nil {
			return nil, nil, err
		}
		arcs[i] = &built{spec: as, input: in}
	}
	t := &tally{}
	m := map[string]float64{}
	info := map[string]any{"workload": o.workload, "seed": o.seed, "env": environment()}
	var err error
	var tr *tracer
	if o.trace {
		tr = newTracer(o.workload)
		err = measureLayers(ctx, o, sp, dir, arcs, tr, t, m)
	} else {
		err = measureEndToEnd(ctx, o, sp, dir, arcs, t, m, info)
	}
	if err != nil {
		return nil, nil, err
	}
	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	res := &result{Attempted: t.attempted.Load(), Failed: t.failed.Load(), Metrics: map[string]metricValue{}}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	for _, d := range defs {
		v, ok := m[d.name]
		if !ok {
			return nil, nil, fmt.Errorf("internal: metric %s not measured", d.name)
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	var archives []map[string]any
	for _, a := range arcs {
		archives = append(archives, map[string]any{
			"name": a.spec.name, "lossy": a.spec.lossy, "addrs": len(a.input),
			"decoded_bytes": 8 * len(a.input), "archive_bytes": a.size,
			"chunks": a.stats.Chunks, "imitations": a.stats.Imitations, "decoded_sha256": a.digest,
		})
	}
	info["archives"] = archives
	info["cache_bytes"] = sp.cacheBytes
	info["window_addrs"] = sp.window
	info["clients"] = sp.clients
	if o.trace {
		path, err := writeSpans(o, tr, m, info)
		if err != nil {
			return nil, nil, err
		}
		info["spans"] = path
	}
	return res, info, nil
}

// measureEndToEnd is the untraced run. After building the archives and
// starting atcserve it repeats one cycle until the time is up: an encode
// of every archive, decodeReps decodes, in the first rssChildren cycles a
// codec child measuring peak RSS, and a serveBurst of closed-loop
// requests. Interleaving spreads every metric's samples over the whole
// run, so a few slow seconds on a shared machine move no median far.
func measureEndToEnd(ctx context.Context, o options, sp spec, dir string, arcs []*built, t *tally, m map[string]float64, info map[string]any) error {
	const decodeReps, rssChildren, serveBurst = 3, 5, 2 * time.Second
	deadline := time.Now().Add(time.Duration(o.seconds * float64(time.Second)))
	var s codecSamples
	if err := buildArchives(dir, arcs, t, &s); err != nil {
		return err
	}
	decodeRep(arcs, t, &s)
	for _, a := range arcs {
		if a.ref == nil {
			return fmt.Errorf("archive %s never decoded", a.spec.name)
		}
	}
	srv, err := startServing(ctx, o.bin, dir, sp, o.seed, arcs, max(sp.setups, 1))
	if err != nil {
		return err
	}
	defer srv.stop()
	for cycle := 0; cycle < 3 || time.Now().Before(deadline); cycle++ {
		encodeRep(dir, arcs, t, &s)
		for i := 0; i < decodeReps; i++ {
			decodeRep(arcs, t, &s)
		}
		if !sp.remote && cycle < rssChildren {
			rss, err := childRSSMiB(dir, arcs)
			t.record("codec child", err)
			if err == nil {
				s.rssMiB = append(s.rssMiB, rss)
			}
		}
		srv.burst(ctx, time.Now().Add(serveBurst), false, t)
	}
	sv, err := srv.finish(nil)
	if err != nil {
		return err
	}
	m["encode_mb_s"] = median(s.encodeMBs)
	m["decode_mb_s"] = median(s.decodeMBs)
	m["bits_per_addr"] = bitsPerAddr(arcs)
	m["serve_req_s"] = median(sv.rates)
	m["serve_p50_ms"] = quantile(sv.lat, 0.50) * 1e3
	m["serve_p99_ms"] = quantile(sv.lat, 0.99) * 1e3
	if sp.remote {
		s.setupS = sv.setupS
		m["peak_rss_mb"] = sv.rssMiB
	} else {
		// Go's collector lands a child's peak on one of a few levels
		// depending on timing; the lowest of the children is the
		// library's own footprint and repeats run to run. A failed child
		// is already counted, so with none left the metric reads 0.
		m["peak_rss_mb"] = 0
		if len(s.rssMiB) > 0 {
			m["peak_rss_mb"] = slices.Min(s.rssMiB)
		}
	}
	m["setup_s"] = median(s.setupS)
	if sp.remote {
		info["origin"] = originByTrace(srv, sv, sp, arcs)
	}
	info["raw"] = map[string][]float64{"encode_mb_s": s.encodeMBs, "decode_mb_s": s.decodeMBs, "setup_s": s.setupS, "peak_rss_mb": s.rssMiB}
	info["samples"] = map[string]int{
		"encode_reps": len(s.encodeMBs), "decode_reps": len(s.decodeMBs),
		"setups": len(s.setupS), "requests": len(sv.lat),
		"requests_beyond_p99": len(sv.lat) - int(math.Ceil(0.99*float64(len(sv.lat)))),
	}
	return nil
}

// originByTrace reports, for each trace of a remote workload, its remote
// block cache, its correct responses, and the chunk-cache hits and loads
// and origin GETs and bytes they took over the load, from atcserve's
// per-trace metrics.
func originByTrace(srv *serving, sv *serveResult, sp spec, arcs []*built) map[string]any {
	out := map[string]any{}
	for i, a := range arcs {
		served := 0
		for _, cl := range srv.clients {
			served += cl.served[i]
		}
		l := `trace="` + a.spec.name + `"`
		out[a.spec.name] = map[string]float64{
			"archive_bytes":     float64(a.size),
			"block_cache_bytes": float64(sp.remoteBlock * remoteBlocks(sp.remoteBlock, arcs)),
			"responses":         float64(served),
			"chunk_cache_hits":  sv.delta("atc_chunk_cache_hits_total", l),
			"chunk_cache_loads": sv.delta("atc_chunk_cache_loads_total", l),
			"origin_gets":       sv.delta("atc_trace_remote_fetches_total", l),
			"origin_bytes":      sv.delta("atc_trace_remote_fetch_bytes_total", l),
		}
	}
	return out
}
