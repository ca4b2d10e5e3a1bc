package bsc

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"runtime"
	"testing"

	"atc/internal/bitio"
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

// shortHugeBlockStream frames one block that claims MaxBlockSize bytes
// but carries only a two-symbol length table (RUNA and EOB, one bit each)
// and a single zero body byte: 180 bytes that decode to 14 RUNA symbols
// before the stream runs out.
func shortHugeBlockStream(t testing.TB) []byte {
	t.Helper()
	var buf bytes.Buffer
	buf.WriteString(magic)
	var hdr [13]byte
	hdr[0] = 1
	binary.LittleEndian.PutUint32(hdr[1:5], MaxBlockSize)
	buf.Write(hdr[:])
	bw := bitio.NewWriter(&buf)
	for sym := 0; sym < mtf.NumSyms; sym++ {
		l := uint64(0)
		if sym == mtf.RunA || sym == mtf.EOB {
			l = 1
		}
		if err := bw.WriteBits(l, lenBits); err != nil {
			t.Fatal(err)
		}
	}
	if err := bw.Close(); err != nil {
		t.Fatal(err)
	}
	buf.WriteByte(0)
	return buf.Bytes()
}

// TestReaderShortStreamBoundedAlloc pins the symbol buffer to the symbols
// a block actually carries: a short stream whose header claims the
// largest block must fail as corrupt without allocating for the claim.
func TestReaderShortStreamBoundedAlloc(t *testing.T) {
	stream := shortHugeBlockStream(t)
	if len(stream) != 180 {
		t.Fatalf("stream is %d bytes, want 180", len(stream))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Decompress(stream)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Decompress = %v, want ErrCorrupt", err)
	}
	if delta := after.TotalAlloc - before.TotalAlloc; delta >= 4<<20 {
		t.Fatalf("decoding a %d-byte stream allocated %d bytes, want < 4 MiB", len(stream), delta)
	}
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
	f.Add(shortHugeBlockStream(f))

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
