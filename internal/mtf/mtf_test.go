package mtf

import (
	"bytes"
	"errors"
	"runtime"
	"testing"
	"testing/quick"

	"atc/internal/bwt"
	"atc/internal/bytesort"
	"atc/internal/workload"
)

func TestMoveToFrontKnown(t *testing.T) {
	// Classic example: "banana" over initial identity table.
	in := []byte("banana")
	got := MoveToFront(in)
	// b=98 -> 98; a: a is now at index 98? order after moving b: [b,0..97,99..]
	// a=97 originally at 97, after b moved to front a sits at 98.
	want := []byte{98, 98, 110, 1, 1, 1}
	if !bytes.Equal(got, want) {
		t.Fatalf("MTF(banana) = %v, want %v", got, want)
	}
}

func TestMoveToFrontRoundTrip(t *testing.T) {
	f := func(data []byte) bool {
		return bytes.Equal(InverseMoveToFront(MoveToFront(data)), data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestMoveToFrontRunsBecomeZeros(t *testing.T) {
	in := []byte{5, 5, 5, 5, 7, 7, 7}
	out := MoveToFront(in)
	for i := 1; i < 4; i++ {
		if out[i] != 0 {
			t.Fatalf("repeat positions should MTF to 0, got %v", out)
		}
	}
	for i := 5; i < 7; i++ {
		if out[i] != 0 {
			t.Fatalf("repeat positions should MTF to 0, got %v", out)
		}
	}
}

func TestZeroRunBijectiveBase2(t *testing.T) {
	// Runs of the front symbol of length r must encode to the documented
	// RUNA/RUNB digit strings.
	cases := []struct {
		run  int
		want []uint16
	}{
		{1, []uint16{RunA}},
		{2, []uint16{RunB}},
		{3, []uint16{RunA, RunA}},
		{4, []uint16{RunB, RunA}},
		{5, []uint16{RunA, RunB}},
		{6, []uint16{RunB, RunB}},
		{7, []uint16{RunA, RunA, RunA}},
	}
	for _, c := range cases {
		// A run of byte 0 at stream start MTFs to a zero run of the same length.
		in := bytes.Repeat([]byte{0}, c.run)
		syms := Encode(in)
		want := append(append([]uint16{}, c.want...), EOB)
		if len(syms) != len(want) {
			t.Fatalf("run %d: symbols %v, want %v", c.run, syms, want)
		}
		for i := range want {
			if syms[i] != want[i] {
				t.Fatalf("run %d: symbols %v, want %v", c.run, syms, want)
			}
		}
	}
}

func TestEncodeDecodeEmpty(t *testing.T) {
	syms := Encode(nil)
	if len(syms) != 1 || syms[0] != EOB {
		t.Fatalf("Encode(nil) = %v, want [EOB]", syms)
	}
	out, n, err := Decode(syms)
	if err != nil || n != 1 || len(out) != 0 {
		t.Fatalf("Decode = %v, %d, %v", out, n, err)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	f := func(data []byte) bool {
		syms := Encode(data)
		out, n, err := Decode(syms)
		if err != nil || n != len(syms) {
			return false
		}
		return bytes.Equal(out, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeStopsAtEOB(t *testing.T) {
	syms := Encode([]byte("hello"))
	// Append trailing garbage; Decode must stop at EOB.
	syms = append(syms, 5, 6, 7)
	out, n, err := Decode(syms)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, []byte("hello")) {
		t.Fatalf("decoded %q", out)
	}
	if n != len(syms)-3 {
		t.Fatalf("consumed %d symbols, want %d", n, len(syms)-3)
	}
}

func TestDecodeMissingEOB(t *testing.T) {
	if _, _, err := Decode([]uint16{2, 3, 4}); err == nil {
		t.Fatal("missing EOB not detected")
	}
}

func TestDecodeBadSymbol(t *testing.T) {
	if _, _, err := Decode([]uint16{300, EOB}); err == nil {
		t.Fatal("out-of-range symbol not detected")
	}
}

func TestCompressionEffect(t *testing.T) {
	// Highly repetitive data must produce far fewer symbols than bytes.
	in := bytes.Repeat([]byte{'z'}, 10000)
	syms := Encode(in)
	if len(syms) > 30 {
		t.Fatalf("10000-byte run encoded to %d symbols; run coding broken", len(syms))
	}
}

func TestLongRunBoundaries(t *testing.T) {
	for _, n := range []int{255, 256, 257, 1023, 1024, 65535} {
		in := bytes.Repeat([]byte{9}, n)
		out, _, err := Decode(Encode(in))
		if err != nil || !bytes.Equal(out, in) {
			t.Fatalf("run length %d failed: %v", n, err)
		}
	}
}

func BenchmarkEncode(b *testing.B) {
	data := bytes.Repeat([]byte("abcabcabd"), 10000)
	b.SetBytes(int64(len(data)))
	for i := 0; i < b.N; i++ {
		Encode(data)
	}
}

// losslessModels are the four Table 1 models of the lossless benchmark
// workload: a compiler, a pointer chaser, a streaming kernel and an XML
// transformer.
var losslessModels = []string{"403.gcc", "429.mcf", "462.libquantum", "483.xalancbmk"}

// addrBlock returns what MTF sees of one full-size bsc block (900 KB,
// bsc.DefaultBlockSize) of model: the BWT of the first block of a
// bytesorted 128 Ki-address segment, as in the lossless benchmark
// workload.
func addrBlock(tb testing.TB, model string) []byte {
	return bwtBlock(tb, model, 128<<10)
}

// bwtBlock is the BWT of the first block (at most 900 KB) of a
// bytesorted n-address segment of model.
func bwtBlock(tb testing.TB, model string, n int) []byte {
	tb.Helper()
	const blockSize = 900 * 1000 // bsc.DefaultBlockSize; bsc imports mtf
	addrs, err := workload.GenerateFiltered(model, n, 1)
	if err != nil {
		tb.Fatal(err)
	}
	block := bytesort.TransformBuffer(addrs, bytesort.Sorted)
	transformed, _ := bwt.Transform(block[:min(len(block), blockSize)])
	return transformed
}

// referenceEncode is the linear-scan encoder Encode replaced: one table
// search and one run step per byte. Encode must match it symbol for
// symbol.
func referenceEncode(data []byte) []uint16 {
	var order [256]byte
	for i := range order {
		order[i] = byte(i)
	}
	syms := make([]uint16, 0, len(data)/2+16)
	zeroRun := 0
	for _, b := range data {
		if order[0] == b {
			zeroRun++
			continue
		}
		j := 1
		for order[j] != b {
			j++
		}
		copy(order[1:j+1], order[:j])
		order[0] = b
		syms = append(append(syms, runSyms(zeroRun)...), uint16(j+1))
		zeroRun = 0
	}
	return append(append(syms, runSyms(zeroRun)...), EOB)
}

// BenchmarkEncodeAddrBlock move-to-front and zero-run codes one real block
// per lossless model (see addrBlock); repetitive text (BenchmarkEncode)
// is not what this layer sees.
func BenchmarkEncodeAddrBlock(b *testing.B) {
	for _, model := range losslessModels {
		block := addrBlock(b, model)
		b.Run(model, func(b *testing.B) {
			b.SetBytes(int64(len(block)))
			b.ReportAllocs()
			for b.Loop() {
				Encode(block)
			}
		})
	}
}

// BenchmarkDecodeAddrBlock reverses BenchmarkEncodeAddrBlock's output
// into a reused buffer, as the bsc Reader does.
func BenchmarkDecodeAddrBlock(b *testing.B) {
	for _, model := range losslessModels {
		block := addrBlock(b, model)
		syms := Encode(block)
		b.Run(model, func(b *testing.B) {
			out := make([]byte, 0, len(block))
			b.SetBytes(int64(len(block)))
			b.ReportAllocs()
			for b.Loop() {
				var err error
				if out, _, err = DecodeInto(out, syms); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// runSyms returns the bijective base-2 RUNA/RUNB digits of a zero run of
// length r, as Encode emits them.
func runSyms(r int) []uint16 {
	var syms []uint16
	for r > 0 {
		if r&1 == 1 {
			syms = append(syms, RunA)
			r = (r - 1) / 2
		} else {
			syms = append(syms, RunB)
			r = (r - 2) / 2
		}
	}
	return syms
}

// TestDecodeRejectsHugeRun is the untrusted-input OOM regression: a
// stream that is one long RUNA/RUNB run (here 80 digits, a run length
// past 2^80, overflowing int) used to append until the process died. It
// must fail as corrupt while allocating next to nothing.
func TestDecodeRejectsHugeRun(t *testing.T) {
	syms := make([]uint16, 80, 81)
	for i := range syms {
		syms[i] = RunB
	}
	syms = append(syms, EOB)
	inputBytes := uint64(len(syms) * 2)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err := DecodeInto(nil, syms)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, errCorrupt) {
		t.Fatalf("err = %v, want errCorrupt", err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 16*inputBytes {
		t.Fatalf("rejecting a %d-byte stream allocated %d bytes", inputBytes, alloc)
	}
}

// TestDecodeRunLimit pins the bound itself: output of exactly
// MaxBlockSize decodes, one byte more — from a longer run, or from a run
// after other output — is corrupt.
func TestDecodeRunLimit(t *testing.T) {
	out, _, err := Decode(append(runSyms(MaxBlockSize), EOB))
	if err != nil || len(out) != MaxBlockSize {
		t.Fatalf("run of MaxBlockSize: %d bytes, %v", len(out), err)
	}
	for name, syms := range map[string][]uint16{
		"long run":         append(runSyms(MaxBlockSize+1), EOB),
		"run after output": append(append([]uint16{3}, runSyms(MaxBlockSize)...), EOB),
	} {
		if _, _, err := Decode(syms); !errors.Is(err, errCorrupt) {
			t.Fatalf("%s: err = %v, want errCorrupt", name, err)
		}
	}
}
