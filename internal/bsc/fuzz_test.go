package bsc

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"atc/internal/mtf"
)

// longRunStream frames one block whose whole symbol stream is a single
// RUNA/RUNB zero run of digits digits: the ~150-byte input that once made
// the MTF decoder append without bound. origLen is kept small but above
// the symbol count, so the block passes the symbol-count check and the
// run itself is what must be rejected.
func longRunStream(t testing.TB, digits int) []byte {
	t.Helper()
	syms := make([]uint16, digits, digits+1)
	for i := range syms {
		syms[i] = mtf.RunA
	}
	syms = append(syms, mtf.EOB)
	var buf writerBuffer
	buf.b = append(buf.b, magic...)
	if err := writeBlock(&buf, uint32(4*digits), 0, 0, syms); err != nil {
		t.Fatal(err)
	}
	buf.b = append(buf.b, 0)
	return buf.b
}

// FuzzBSCReader throws arbitrary bytes at the decompressor. Any outcome
// is an ErrCorrupt-wrapped error (a failed checksum included) or, for a
// seed stream, exactly the bytes it was compressed from — never a panic
// or an unbounded allocation. A mutated stream that still decodes has
// passed every block's CRC, so its output is what the encoder saw. The
// seeds run on every go test, so the long-run crasher is a regression
// test too.
//
// CI runs this for a short smoke window
// (go test -fuzz=FuzzBSCReader -fuzztime=10s ./internal/bsc).
func FuzzBSCReader(f *testing.F) {
	rng := rand.New(rand.NewSource(9))
	random := make([]byte, 3000)
	rng.Read(random)
	originals := map[string][]byte{}
	for _, orig := range [][]byte{
		nil,
		[]byte("the quick brown fox jumps over the lazy dog"),
		bytes.Repeat([]byte{0, 0, 0, 7}, 500),
		random,
	} {
		for _, blockSize := range []int{DefaultBlockSize, 512} {
			stream, err := CompressSize(orig, blockSize)
			if err != nil {
				f.Fatal(err)
			}
			originals[string(stream)] = orig
			f.Add(stream)
		}
	}
	f.Add(longRunStream(f, 40))

	f.Fuzz(func(t *testing.T, stream []byte) {
		got, err := Decompress(stream)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("rejected without ErrCorrupt: %v", err)
			}
			return
		}
		if want, ok := originals[string(stream)]; ok && !bytes.Equal(got, want) {
			t.Fatalf("seed stream decoded to %d bytes that differ from its %d-byte original", len(got), len(want))
		}
	})
}
