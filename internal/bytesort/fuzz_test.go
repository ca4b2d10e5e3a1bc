package bytesort

import (
	"bytes"
	"errors"
	"math/rand"
	"runtime"
	"testing"
)

// hugeHeaderStream is a segment header claiming maxSegmentAddrs (2^27)
// addresses, 1 GiB of body, followed by only a few body bytes: the input
// that once made readSegment allocate the whole claimed body up front.
func hugeHeaderStream() []byte {
	return []byte{0x00, 0x00, 0x00, 0x08, 1, 2, 3, 4, 5, 6, 7, 8}
}

// TestDecoderHugeHeaderBoundedAlloc checks that a short body behind a huge
// segment header is rejected as corrupt while allocating about what the
// stream delivered (one read step), not what its header claimed.
func TestDecoderHugeHeaderBoundedAlloc(t *testing.T) {
	for _, mode := range []Mode{Sorted, Unshuffle} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := NewDecoderMode(bytes.NewReader(hugeHeaderStream()), mode).ReadAll()
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("mode %d: err = %v, want ErrCorrupt", mode, err)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 4<<20 {
			t.Fatalf("mode %d: rejecting a 12-byte stream allocated %d bytes", mode, alloc)
		}
	}
}

// FuzzBytesortDecoder throws arbitrary bytes at the Decoder in either
// mode. Any outcome is an ErrCorrupt-wrapped error or a decode; a seed
// stream decodes to exactly the addresses it was encoded from, and no
// decode yields more addresses than its body bytes can hold. The seeds
// run on every go test, so the huge-header crasher is a regression test
// too.
//
// CI runs this for a short smoke window
// (go test -fuzz=FuzzBytesortDecoder -fuzztime=10s ./internal/bytesort).
func FuzzBytesortDecoder(f *testing.F) {
	rng := rand.New(rand.NewSource(11))
	random := make([]uint64, 300)
	for i := range random {
		random[i] = uint64(rng.Int63())
	}
	strided := make([]uint64, 500)
	for i := range strided {
		strided[i] = 0x00007F0000000000 + uint64(i%37)*64
	}
	// Constant top four bytes over random low ones: the shape of every
	// workload model's segments, whose sorts by the top bytes are the
	// identity.
	prefix := make([]uint64, 400)
	for i := range prefix {
		prefix[i] = 0x00007F1200000000 | uint64(rng.Uint32())
	}
	type seed struct {
		stream    string
		unshuffle bool
	}
	originals := map[seed][]uint64{}
	for _, orig := range [][]uint64{nil, paperExample16, random, strided, prefix} {
		for _, bufAddrs := range []int{DefaultBufferAddrs, 64} {
			for _, mode := range []Mode{Sorted, Unshuffle} {
				var buf bytes.Buffer
				e := NewEncoderMode(&buf, bufAddrs, mode)
				if err := e.WriteSlice(orig); err != nil {
					f.Fatal(err)
				}
				if err := e.Close(); err != nil {
					f.Fatal(err)
				}
				originals[seed{buf.String(), mode == Unshuffle}] = orig
				f.Add(buf.Bytes(), mode == Unshuffle)
			}
		}
	}
	f.Add(hugeHeaderStream(), false)
	f.Add(hugeHeaderStream(), true)

	f.Fuzz(func(t *testing.T, stream []byte, unshuffle bool) {
		mode := Sorted
		if unshuffle {
			mode = Unshuffle
		}
		got, err := NewDecoderMode(bytes.NewReader(stream), mode).ReadAll()
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("rejected without ErrCorrupt: %v", err)
			}
			return
		}
		if 8*len(got) > len(stream) {
			t.Fatalf("%d-byte stream decoded to %d addresses", len(stream), len(got))
		}
		want, ok := originals[seed{string(stream), unshuffle}]
		if !ok {
			return
		}
		if len(got) != len(want) {
			t.Fatalf("seed stream decoded to %d addresses, want %d", len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed stream addr %d = %#x, want %#x", i, got[i], want[i])
			}
		}
	})
}
