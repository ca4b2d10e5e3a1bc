package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"time"

	"atc"
	"atc/internal/cheetah"
)

// built is one archive of a run: its input, where it lives, and what a
// correct decode returns.
type built struct {
	spec  archiveSpec
	input []uint64
	path  string
	size  int64
	stats atc.Stats
	// ref is what every decode must return: the input itself for a
	// lossless archive, the first decode for a lossy one (each later
	// decode must repeat it exactly).
	ref    []uint64
	digest string
}

// rawMB is the size of n addresses as a raw trace, in MB (10^6 bytes).
func rawMB(n int) float64 { return float64(n) * 8 / 1e6 }

// traceBatch is how many Code or Decode calls one traced span covers.
const traceBatch = 64 << 10

// source yields a trace one address at a time and io.EOF after the last.
type source func() (uint64, error)

// sliceSource yields the addresses of xs.
func sliceSource(xs []uint64) source {
	i := 0
	return func() (uint64, error) {
		if i == len(xs) {
			return 0, io.EOF
		}
		i++
		return xs[i-1], nil
	}
}

// encodeArchive codes the addresses of next into a fresh archive at path
// through the public API, one Code call per address, and returns the wall
// time from CreateArchive to the end of Close.
func encodeArchive(path string, next source, opts []atc.Option, tr *tracer) (time.Duration, atc.Stats, error) {
	if err := os.Remove(path); err != nil && !errors.Is(err, os.ErrNotExist) {
		return 0, atc.Stats{}, err
	}
	t0 := time.Now()
	root := tr.begin("core.encode", 0)
	defer tr.end(root)
	w, err := atc.CreateArchive(path, opts...)
	if err != nil {
		return 0, atc.Stats{}, err
	}
	var batch int
	for n := 0; ; n++ {
		if n%traceBatch == 0 {
			tr.end(batch)
			batch = tr.begin("core.code", root)
		}
		x, err := next()
		if err == io.EOF {
			break
		}
		if err == nil {
			err = w.Code(x)
		}
		if err != nil {
			w.Close()
			return 0, atc.Stats{}, fmt.Errorf("code at %d: %w", n, err)
		}
	}
	tr.end(batch)
	id := tr.begin("core.close", root)
	err = w.Close()
	tr.end(id)
	if err != nil {
		return 0, atc.Stats{}, fmt.Errorf("close: %w", err)
	}
	return time.Since(t0), w.Stats(), nil
}

// decodeArchive decodes the archive at path to EOF, one Decode call per
// address. setup is OpenArchive to the first address. With want set,
// every address is checked against it, the decode must end when want
// does, and nothing is kept; without it, the decoded trace is returned.
func decodeArchive(path string, want source, ropts []atc.ReadOption, tr *tracer) (setup, total time.Duration, got []uint64, err error) {
	t0 := time.Now()
	root := tr.begin("core.decode", 0)
	defer tr.end(root)
	open := tr.begin("core.open", root)
	r, err := atc.OpenArchive(path, ropts...)
	if err != nil {
		return 0, 0, nil, err
	}
	defer r.Close()
	var batch int
	for n := 0; ; n++ {
		if n%traceBatch == 0 {
			tr.end(open)
			open = 0
			tr.end(batch)
			batch = tr.begin("core.decode_batch", root)
		}
		x, err := r.Decode()
		if n == 0 {
			setup = time.Since(t0)
		}
		if err != nil && err != io.EOF {
			return 0, 0, nil, fmt.Errorf("decode at %d: %w", n, err)
		}
		if want == nil {
			if err == io.EOF {
				break
			}
			got = append(got, x)
			continue
		}
		w, werr := want()
		if werr != nil && werr != io.EOF {
			return 0, 0, nil, fmt.Errorf("reference at %d: %w", n, werr)
		}
		if err == io.EOF || werr == io.EOF {
			if err != werr {
				return 0, 0, nil, fmt.Errorf("decode ended (%v) and reference ended (%v) apart, at address %d", err, werr, n)
			}
			break
		}
		if x != w {
			return 0, 0, nil, fmt.Errorf("address %d: got %#x, want %#x", n, x, w)
		}
	}
	tr.end(batch)
	return setup, time.Since(t0), got, nil
}

// digest is a SHA-256 of a trace in the raw 8-byte little-endian format.
func digest(xs []uint64) string {
	h := sha256.New()
	var b [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(b[:], x)
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// codecSamples are the per-repetition measurements of a codec phase.
type codecSamples struct {
	encodeMBs, decodeMBs, setupS, rssMiB []float64
}

// buildArchives encodes every archive once. It records each archive's
// size and stats, and the encode throughput as the first sample.
func buildArchives(dir string, arcs []*built, t *tally, s *codecSamples) error {
	var mb, sec float64
	for _, a := range arcs {
		a.path = filepath.Join(dir, a.spec.name+".atc")
		d, st, err := encodeArchive(a.path, sliceSource(a.input), a.spec.options(), nil)
		t.record("encode "+a.spec.name, err)
		if err != nil {
			return err
		}
		fi, err := os.Stat(a.path)
		if err != nil {
			return err
		}
		a.size, a.stats = fi.Size(), st
		mb += rawMB(len(a.input))
		sec += d.Seconds()
	}
	s.encodeMBs = append(s.encodeMBs, mb/sec)
	return nil
}

// encodeRep re-encodes every archive into a scratch path and records the
// throughput over all of them.
func encodeRep(dir string, arcs []*built, t *tally, s *codecSamples) {
	var mb, sec float64
	for _, a := range arcs {
		p := filepath.Join(dir, "rep-"+a.spec.name+".atc")
		d, _, err := encodeArchive(p, sliceSource(a.input), a.spec.options(), nil)
		t.record("encode "+a.spec.name, err)
		if err != nil {
			return
		}
		mb += rawMB(len(a.input))
		sec += d.Seconds()
	}
	s.encodeMBs = append(s.encodeMBs, mb/sec)
}

// decodeRep decodes every archive once with the default readahead and
// checks the output: byte identity for lossless archives; for lossy ones
// the input's length, and the same trace on every decode.
func decodeRep(arcs []*built, t *tally, s *codecSamples) {
	var mb, sec float64
	for _, a := range arcs {
		setup, total, err := decodeChecked(a)
		t.record("decode "+a.spec.name, err)
		if err != nil {
			return
		}
		s.setupS = append(s.setupS, setup.Seconds())
		mb += rawMB(len(a.input))
		sec += total.Seconds()
	}
	s.decodeMBs = append(s.decodeMBs, mb/sec)
}

// decodeChecked decodes a once and checks it against its reference,
// fixing the reference of a lossy archive on its first decode.
func decodeChecked(a *built) (setup, total time.Duration, err error) {
	if !a.spec.lossy && a.ref == nil {
		a.ref, a.digest = a.input, digest(a.input)
	}
	var want source
	if a.ref != nil {
		want = sliceSource(a.ref)
	}
	setup, total, got, err := decodeArchive(a.path, want, nil, nil)
	if err != nil || a.ref != nil {
		return setup, total, err
	}
	if len(got) != len(a.input) {
		return 0, 0, fmt.Errorf("lossy decode has %d addresses, input %d", len(got), len(a.input))
	}
	a.ref, a.digest = got, digest(got)
	return setup, total, nil
}

// bitsPerAddr is archive bytes × 8 over addresses, across arcs.
func bitsPerAddr(arcs []*built) float64 {
	var bytes, n float64
	for _, a := range arcs {
		bytes += float64(a.size)
		n += float64(len(a.input))
	}
	return bytes * 8 / n
}

// missRatioErr is the largest |miss ratio(decoded) − miss ratio(input)|
// over the Figure 3 LRU grid: 512 to 32768 sets, associativity 1 to 32.
func missRatioErr(exact, approx []uint64) (float64, error) {
	sets := []int{512, 2048, 8192, 32768}
	ge, err := cheetah.NewGrid(sets, 32)
	if err != nil {
		return 0, err
	}
	ga, err := cheetah.NewGrid(sets, 32)
	if err != nil {
		return 0, err
	}
	ge.AccessAll(exact)
	ga.AccessAll(approx)
	worst := 0.0
	for i, se := range ge.Simulators() {
		e, a := se.MissRatios(), ga.Simulators()[i].MissRatios()
		for j := range e {
			worst = math.Max(worst, math.Abs(e[j]-a[j]))
		}
	}
	return worst, nil
}
