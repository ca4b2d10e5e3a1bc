package main

import (
	"fmt"

	"atc"
	"atc/internal/workload"
)

// archiveSpec describes one archive a workload builds from its seed.
type archiveSpec struct {
	// name is the archive's base name, and so its atcserve trace name.
	name string
	// lossy selects lossy mode; otherwise the archive is lossless
	// segmented (format v2).
	lossy bool
	// models are Table 1 workload models. A lossless input concatenates
	// perModel filtered addresses of each; a lossy input cycles through
	// them, one interval per visit, cycles times, so every phase recurs.
	models   []string
	perModel int
	cycles   int
	// segment is the lossless segment length, interval the lossy interval
	// length L, both in addresses.
	segment  int
	interval int
}

// options are the writer options the archive is encoded with. Everything
// not named here, workers included, is the library default.
func (a archiveSpec) options() []atc.Option {
	if a.lossy {
		return []atc.Option{atc.WithMode(atc.Lossy), atc.WithIntervalLen(a.interval)}
	}
	return []atc.Option{atc.WithSegmentAddrs(a.segment)}
}

// mix is a closed-loop request mix: the shares of sequential-scan and
// Zipf-popular window requests; the rest are byte-Range sub-windows of
// Zipf-popular windows.
type mix struct{ seq, zipf float64 }

// spec is one benchmark workload.
type spec struct {
	archives []archiveSpec
	// remote serves the archives from an atcstatic origin through
	// atcserve -remote; otherwise atcserve opens the local files.
	// remoteBlock is atcserve's -remote-block; -remote-blocks comes from
	// the built archives (see remoteBlocks).
	remote      bool
	remoteBlock int
	// cacheBytes is atcserve's -cache-bytes budget.
	cacheBytes int64
	// window is the address count of one /addrs request.
	window  int
	mix     mix
	clients int
	// setups is how many times a remote workload times atcserve's start,
	// reporting the median; local workloads start it once.
	setups int
}

// Table 1 models whose concatenation makes the lossless input: a compiler,
// a pointer chaser, a streaming kernel and an XML transformer, so the
// back end sees very different byte statistics segment to segment.
var losslessModels = []string{"403.gcc", "429.mcf", "462.libquantum", "483.xalancbmk"}

// Six phases the lossy input cycles through.
var recurringModels = []string{"403.gcc", "429.mcf", "462.libquantum", "483.xalancbmk", "401.bzip2", "470.lbm"}

// window is the /addrs request size of every workload: one lossy
// interval, the unit at which the lossy codec decides between a chunk and
// an imitation, so a lossy window is one such decision. No measured
// request size exists to take instead; README.md lists this and the other
// traffic parameters as assumptions.
const window = 16 << 10

// workloads are the benchmark's workloads. README.md records why each was
// chosen and which layers it loads and bypasses.
var workloads = map[string]spec{
	// The back end (bytesort, BWT, MTF, Huffman) does all the work; the
	// lossy front end does none. 1 Mi addresses in 8 segments keep both
	// encode workers busy.
	"lossless-archive": {
		archives:   []archiveSpec{{name: "lossless", models: losslessModels, perModel: 256 << 10, segment: 128 << 10}},
		cacheBytes: 2 << 20, window: window, mix: mix{seq: 1}, clients: 2,
	},
	// Most intervals imitate an earlier phase: histogram runs on every
	// address, phase classifies every interval, decode translates every
	// imitation, and the back end only sees the first visit of a phase.
	"lossy-recurring": {
		archives:   []archiveSpec{{name: "lossy", lossy: true, models: recurringModels, cycles: 24, interval: window}},
		cacheBytes: 1 << 20, window: window, mix: mix{seq: 1}, clients: 2,
	},
	// A lossless and a lossy archive behind atcserve -remote over an
	// atcstatic origin. The chunk cache holds well under the decoded
	// working set, and each trace's remote block cache holds under half of
	// its own archive, so misses reach the back end and the origin. The
	// lossless segments are short so that the chunk cache works at a grain
	// finer than the Zipf-popular set (see README.md).
	"serve-remote-zipf": {
		archives: []archiveSpec{
			{name: "ll", models: losslessModels, perModel: 128 << 10, segment: 32 << 10},
			{name: "ly", lossy: true, models: recurringModels, cycles: 8, interval: window},
		},
		remote: true, remoteBlock: 32 << 10, cacheBytes: 2 << 20, window: window,
		mix: mix{seq: 0.45, zipf: 0.45}, clients: 2, setups: 15,
	},
}

// generate makes the archive's input trace from seed. The same seed gives
// the same trace.
func (a archiveSpec) generate(seed uint64) ([]uint64, error) {
	if !a.lossy {
		out := make([]uint64, 0, len(a.models)*a.perModel)
		for i, m := range a.models {
			xs, err := workload.GenerateFiltered(m, a.perModel, seed*131+uint64(i))
			if err != nil {
				return nil, err
			}
			out = append(out, xs...)
		}
		return out, nil
	}
	L := a.interval
	streams := make([][]uint64, len(a.models))
	for i, m := range a.models {
		// The first interval of a model is its cold start; it is dropped so
		// that every visit of a phase is a steady-state one.
		xs, err := workload.GenerateFiltered(m, (a.cycles+1)*L, seed*131+uint64(i))
		if err != nil {
			return nil, err
		}
		streams[i] = xs[L:]
	}
	out := make([]uint64, 0, a.cycles*L*len(a.models))
	for c := 0; c < a.cycles; c++ {
		for _, xs := range streams {
			out = append(out, xs[c*L:(c+1)*L]...)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("archive %s: empty input", a.name)
	}
	return out, nil
}

// remoteBlocks is atcserve's -remote-blocks for arcs. The flag sizes the
// block cache of each trace on its own, so it is half the smallest
// archive, in blocks of the given size (at least one): no trace's archive
// fits in its own block cache, and its chunk misses reach the origin.
func remoteBlocks(block int, arcs []*built) int {
	smallest := arcs[0].size
	for _, a := range arcs[1:] {
		smallest = min(smallest, a.size)
	}
	return max(1, int(smallest/2/int64(block)))
}
