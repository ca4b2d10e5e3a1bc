package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"atc"
	"atc/internal/obs"
)

type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run, in BENCHMARK.json order.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"encode_mb_s", "MB/s"},
	{"decode_mb_s", "MB/s"},
	{"bits_per_addr", "bits"},
	{"peak_rss_mb", "MiB"},
	{"serve_req_s", "req/s"},
	{"serve_p50_ms", "ms"},
	{"serve_p99_ms", "ms"},
}

// perLayer are the metrics of a traced run, in BENCHMARK.json order.
// README.md defines each and names the end-to-end metric it should move.
var perLayer = []metricDef{
	{"bwt.transform_s", "s"}, {"bwt.blocks", "count"}, {"bwt.bytes", "bytes"}, {"bwt.inverse_s", "s"},
	{"mtf.encode_s", "s"}, {"mtf.symbols", "count"}, {"mtf.decode_s", "s"},
	{"huffman.encode_s", "s"}, {"huffman.bits", "bits"}, {"huffman.decode_s", "s"},
	{"bytesort.encode_s", "s"}, {"bytesort.bytes", "bytes"}, {"bytesort.decode_s", "s"},
	{"bsc.compress_s", "s"}, {"bsc.decompress_s", "s"}, {"bsc.framing_s", "s"}, {"bsc.ratio", "ratio"},
	{"histogram.compute_s", "s"}, {"histogram.intervals", "count"},
	{"histogram.translate_s", "s"}, {"histogram.translated_addrs", "count"},
	{"phase.match_s", "s"}, {"phase.lookups", "count"}, {"phase.matches", "count"},
	{"phase.compared", "count"}, {"phase.pruned", "count"}, {"phase.imitation_ratio", "ratio"},
	{"phase.miss_ratio_err", "abs"},
	{"store.write_s", "s"}, {"store.bytes_written", "bytes"}, {"store.read_s", "s"}, {"store.bytes_read", "bytes"},
	{"store.remote_gets", "count"}, {"store.remote_bytes", "bytes"}, {"store.remote_fetch_s", "s"},
	{"store.remote_block_hits", "count"}, {"store.prefetch_hit_ratio", "ratio"}, {"store.remote_retries", "count"},
	{"store.fetch_amplification", "ratio"}, {"store.origin_gets_per_req", "count"},
	{"core.encode_serial_s", "s"}, {"core.encode_other_s", "s"}, {"core.decode_serial_s", "s"}, {"core.decode_other_s", "s"},
	{"core.chunks", "count"}, {"core.imitations", "count"}, {"core.chunk_loads", "count"},
	{"core.cache_hits", "count"}, {"core.chunks_streamed", "count"},
	{"atcserve.wait_s", "s"}, {"atcserve.index_s", "s"}, {"atcserve.fetch_s", "s"}, {"atcserve.decompress_s", "s"},
	{"atcserve.translate_s", "s"}, {"atcserve.deliver_s", "s"}, {"atcserve.other_s", "s"},
	{"atcserve.cache_hit_ratio", "ratio"}, {"atcserve.cache_evictions", "count"}, {"atcserve.pool_wait_s", "s"},
	{"atcserve.rejected_429", "count"}, {"atcserve.errors_5xx", "count"},
	{"trace.codec_overhead_ratio", "ratio"}, {"trace.serve_overhead_ratio", "ratio"},
}

// measureLayers is the traced run. It times the pipeline untraced and with
// spans around its public calls (the difference is the tracing overhead),
// times a serial pipeline (the total the codec layers must add up to),
// replays every layer call with a span around it, and serves the archives
// with half the window requests traced by atcserve.
func measureLayers(ctx context.Context, o options, sp spec, dir string, arcs []*built, tr *tracer, t *tally, m map[string]float64) error {
	start := time.Now()

	var s codecSamples
	if err := buildArchives(dir, arcs, t, &s); err != nil {
		return err
	}
	decodeRep(arcs, t, &s)
	if len(s.decodeMBs) == 0 {
		return fmt.Errorf("decode failed")
	}

	// The pipeline timed untraced and traced, alternately, twice. The first
	// traced pass also counts the core's chunk loads and cache hits in the
	// library's own metrics registry.
	var untraced, traced float64
	var before, after prom
	for pass := 0; pass < 2; pass++ {
		untraced += codecPass(dir, arcs, nil, t)
		var err error
		if pass == 0 {
			if before, err = registrySnapshot(); err != nil {
				return err
			}
		}
		traced += codecPass(dir, arcs, tr, t)
		if pass == 0 {
			if after, err = registrySnapshot(); err != nil {
				return err
			}
		}
	}

	// The serial pipeline: the totals the replayed layers reconcile with.
	var encSerial, decSerial float64
	for _, a := range arcs {
		d, _, err := encodeArchive(filepath.Join(dir, "serial-"+a.spec.name+".atc"), sliceSource(a.input), append(a.spec.options(), atc.WithWorkers(1)), nil)
		t.record("serial encode "+a.spec.name, err)
		_, dd, _, derr := decodeArchive(a.path, sliceSource(a.ref), []atc.ReadOption{atc.WithReadahead(-1)}, nil)
		t.record("serial decode "+a.spec.name, derr)
		encSerial += d.Seconds()
		decSerial += dd.Seconds()
	}

	var c counts
	mre := 0.0
	for _, a := range arcs {
		replayArchive(tr, dir, a, a.ref, t, &c)
		if a.spec.lossy {
			e, err := missRatioErr(a.input, a.ref)
			if err != nil {
				return err
			}
			mre = max(mre, e)
		}
	}

	until := start.Add(time.Duration(o.seconds * float64(time.Second)))
	if minEnd := time.Now().Add(time.Duration(0.3 * o.seconds * float64(time.Second))); until.Before(minEnd) {
		until = minEnd
	}
	srv, err := startServing(ctx, o.bin, dir, sp, o.seed, arcs, 1)
	if err != nil {
		return err
	}
	defer srv.stop()
	srv.burst(ctx, until, true, t)
	sv, err := srv.finish(tr)
	if err != nil {
		return err
	}

	total, self := tr.layerTimes()
	for _, n := range []string{"bwt.transform", "bwt.inverse", "mtf.encode", "mtf.decode", "huffman.encode", "huffman.decode",
		"bytesort.encode", "bytesort.decode", "bsc.compress", "bsc.decompress", "histogram.compute", "histogram.translate",
		"phase.match", "store.write", "store.read"} {
		m[n+"_s"] = total[n]
	}
	m["bsc.framing_s"] = self["bsc.compress"] + self["bsc.decompress"]
	m["bwt.blocks"] = float64(c.bwtBlocks)
	m["bwt.bytes"] = float64(c.bwtBytes)
	m["mtf.symbols"] = float64(c.mtfSymbols)
	m["huffman.bits"] = float64(c.huffmanBits)
	m["bytesort.bytes"] = float64(c.bytesortBytes)
	m["bsc.ratio"] = ratio(float64(c.bscIn), float64(c.bscOut))
	m["histogram.intervals"] = float64(c.intervals)
	m["histogram.translated_addrs"] = float64(c.translated)
	m["phase.lookups"] = float64(c.table.Lookups)
	m["phase.matches"] = float64(c.table.Matches)
	m["phase.compared"] = float64(c.table.Compared)
	m["phase.pruned"] = float64(c.table.Pruned)
	m["phase.miss_ratio_err"] = mre
	m["store.bytes_written"] = float64(c.written)
	m["store.bytes_read"] = float64(c.read)

	var chunks, imits, archiveBytes float64
	for _, a := range arcs {
		chunks += float64(a.stats.Chunks)
		imits += float64(a.stats.Imitations)
		archiveBytes += float64(a.size)
	}
	m["phase.imitation_ratio"] = ratio(imits, float64(c.intervals))
	m["core.chunks"] = chunks
	m["core.imitations"] = imits
	m["core.encode_serial_s"] = encSerial
	m["core.encode_other_s"] = encSerial - (total["histogram.compute"] + total["phase.match"] + total["bytesort.encode"] + total["bsc.compress"] + total["store.write"])
	m["core.decode_serial_s"] = decSerial
	m["core.decode_other_s"] = decSerial - (total["store.read"] + total["bsc.decompress"] + total["bytesort.decode"] + total["histogram.translate"])
	m["core.chunk_loads"] = after.sum("atc_decode_chunk_loads_total") - before.sum("atc_decode_chunk_loads_total")
	m["core.cache_hits"] = after.sum("atc_decode_chunk_cache_hits_total") - before.sum("atc_decode_chunk_cache_hits_total")
	m["core.chunks_streamed"] = after.sum("atc_decode_chunks_streamed_total") - before.sum("atc_decode_chunks_streamed_total")

	serveLayers(sv, archiveBytes, m)
	m["trace.codec_overhead_ratio"] = traced/untraced - 1
	var tracedLat []float64
	for _, r := range sv.traced {
		tracedLat = append(tracedLat, r.end.Sub(r.start).Seconds())
	}
	m["trace.serve_overhead_ratio"] = ratio(mean(tracedLat), mean(sv.untracedLat)) - 1
	return nil
}

// codecPass encodes and decodes every archive once through the public
// API, checking the decode, and returns the wall seconds.
func codecPass(dir string, arcs []*built, tr *tracer, t *tally) float64 {
	var sec float64
	for _, a := range arcs {
		d, _, err := encodeArchive(filepath.Join(dir, "pass-"+a.spec.name+".atc"), sliceSource(a.input), a.spec.options(), tr)
		t.record("encode "+a.spec.name, err)
		_, dd, _, derr := decodeArchive(a.path, sliceSource(a.ref), nil, tr)
		t.record("decode "+a.spec.name, derr)
		sec += d.Seconds() + dd.Seconds()
	}
	return sec
}

// serveLayers derives the atcserve and remote-store metrics of a traced
// serve phase: stage times are means per traced request, counters are
// deltas of atcserve's /metrics over the load.
func serveLayers(sv *serveResult, archiveBytes float64, m map[string]float64) {
	stageSum := map[string]float64{}
	var other float64
	for _, r := range sv.traced {
		var sum float64
		for _, s := range r.stages {
			stageSum[s.name] += s.sec
			sum += s.sec
		}
		other += r.end.Sub(r.start).Seconds() - sum
	}
	n := float64(len(sv.traced))
	for _, st := range []string{"wait", "index", "fetch", "decompress", "translate", "deliver"} {
		m["atcserve."+st+"_s"] = ratio(stageSum[st], n)
	}
	m["atcserve.other_s"] = ratio(other, n)
	hits := sv.delta("atc_chunk_cache_hits_total")
	loads := sv.delta("atc_chunk_cache_loads_total")
	m["atcserve.cache_hit_ratio"] = ratio(hits, hits+loads)
	m["atcserve.cache_evictions"] = sv.delta("atc_chunk_cache_evictions_total")
	m["atcserve.pool_wait_s"] = ratio(sv.delta("atc_http_pool_wait_seconds_sum"), sv.delta("atc_http_pool_wait_seconds_count"))
	m["atcserve.rejected_429"] = sv.delta("atc_http_throttled_total")
	m["atcserve.errors_5xx"] = sv.delta("atc_http_requests_total", `class="5xx"`)

	gets := sv.delta("atc_remote_fetches_total")
	remoteBytes := sv.delta("atc_remote_fetch_bytes_total")
	m["store.remote_gets"] = gets
	m["store.remote_bytes"] = remoteBytes
	m["store.remote_fetch_s"] = sv.delta("atc_remote_fetch_seconds_sum")
	m["store.remote_block_hits"] = sv.delta("atc_remote_block_hits_total")
	ph, pw := sv.delta("atc_remote_prefetch_total", `result="hit"`), sv.delta("atc_remote_prefetch_total", `result="wasted"`)
	m["store.prefetch_hit_ratio"] = ratio(ph, ph+pw)
	m["store.remote_retries"] = sv.delta("atc_remote_retries_total")
	m["store.fetch_amplification"] = ratio(remoteBytes, archiveBytes)
	m["store.origin_gets_per_req"] = ratio(gets, float64(sv.ok))
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return ratio(s, float64(len(xs)))
}

// registrySnapshot reads this process's metrics registry, which the
// library's decoder counts chunk loads and cache hits into.
func registrySnapshot() (prom, error) {
	var b bytes.Buffer
	if err := obs.Default().WritePrometheus(&b); err != nil {
		return nil, err
	}
	return parseProm(&b)
}

// writeSpans writes the run's spans, the per-layer summary and the run
// details to a JSON file under o.work and returns its path.
func writeSpans(o options, tr *tracer, m map[string]float64, info map[string]any) (string, error) {
	dir := filepath.Join(o.work, "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", o.workload, o.seed))
	total, self := tr.layerTimes()
	b, err := json.Marshal(map[string]any{
		"run": info, "layers": m, "span_total_s": total, "span_self_s": self, "spans": tr.spans,
	})
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, b, 0o644)
}
