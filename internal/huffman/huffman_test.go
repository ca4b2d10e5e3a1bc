package huffman

import (
	"bytes"
	"io"
	"math/rand"
	"testing"
	"testing/quick"

	"atc/internal/bitio"
	"atc/internal/bwt"
	"atc/internal/bytesort"
	"atc/internal/mtf"
	"atc/internal/workload"
)

// referenceReadSymbol is the bit-serial canonical decode: it reads one bit
// at a time and stops at the first length whose code range holds the code
// so far. The table-driven ReadSymbol must match it symbol for symbol,
// error for error and byte for byte.
func referenceReadSymbol(d *Decoder) (int, error) {
	code := uint32(0)
	for l := 1; l <= d.maxLen; l++ {
		bit, err := d.r.ReadBit()
		if err != nil {
			return 0, err
		}
		code = code<<1 | uint32(bit)
		if d.count[l] > 0 {
			idx := int(code) - int(d.firstCode[l])
			if idx >= 0 && idx < d.count[l] {
				return d.symOrder[d.offset[l]+idx], nil
			}
		}
	}
	return 0, errBadLengths
}

// byteCounter is an io.ByteReader over b that counts the bytes pulled.
type byteCounter struct {
	b []byte
	n int
}

func (c *byteCounter) ReadByte() (byte, error) {
	if c.n == len(c.b) {
		return 0, io.EOF
	}
	c.n++
	return c.b[c.n-1], nil
}

func (c *byteCounter) Read(p []byte) (int, error) {
	if c.n == len(c.b) {
		return 0, io.EOF
	}
	k := copy(p, c.b[c.n:])
	c.n += k
	return k, nil
}

const (
	blockSize = 900 * 1000 // bsc.DefaultBlockSize; bsc imports huffman
	lenBits   = 5          // bits per code length in a bsc block header
)

// losslessModels are the four Table 1 models of the lossless benchmark
// workload: a compiler, a pointer chaser, a streaming kernel and an XML
// transformer.
var losslessModels = []string{"403.gcc", "429.mcf", "462.libquantum", "483.xalancbmk"}

// addrBlockSyms returns the MTF symbol stream bsc entropy-codes for the
// first block (at most 900 KB) of a bytesorted n-address segment of model:
// the data this decoder sees in the lossless workload.
func addrBlockSyms(tb testing.TB, model string, n int) []uint16 {
	tb.Helper()
	addrs, err := workload.GenerateFiltered(model, n, 1)
	if err != nil {
		tb.Fatal(err)
	}
	block := bytesort.TransformBuffer(addrs, bytesort.Sorted)
	if len(block) > blockSize {
		block = block[:blockSize]
	}
	transformed, _ := bwt.Transform(block)
	return mtf.Encode(transformed)
}

// blockLengths builds the length table bsc builds for syms.
func blockLengths(tb testing.TB, syms []uint16) []uint8 {
	tb.Helper()
	freqs := make([]int64, mtf.NumSyms)
	for _, s := range syms {
		freqs[s]++
	}
	lengths, err := BuildLengths(freqs, MaxBits)
	if err != nil {
		tb.Fatal(err)
	}
	return lengths
}

// encodeBlock writes lengths and syms as a bsc block body: each code
// length in lenBits bits, then the canonical codes, zero-padded to a byte.
func encodeBlock(tb testing.TB, lengths []uint8, syms []uint16) []byte {
	tb.Helper()
	cb, err := NewCodebook(lengths)
	if err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	bw := bitio.NewWriter(&buf)
	for _, l := range lengths {
		if err := bw.WriteBits(uint64(l), lenBits); err != nil {
			tb.Fatal(err)
		}
	}
	enc := NewEncoder(cb, bw)
	for _, s := range syms {
		if err := enc.WriteSymbol(int(s)); err != nil {
			tb.Fatal(err)
		}
	}
	if err := bw.Close(); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// readLengths reads a block header's code lengths into lengths.
func readLengths(br *bitio.Reader, lengths []uint8) error {
	for i := range lengths {
		v, err := br.ReadBits(lenBits)
		if err != nil {
			return err
		}
		lengths[i] = uint8(v)
	}
	return nil
}

func roundTrip(t *testing.T, data []byte, maxBits int) {
	t.Helper()
	freqs := make([]int64, 256)
	for _, b := range data {
		freqs[b]++
	}
	lengths, err := BuildLengths(freqs, maxBits)
	if err != nil {
		t.Fatalf("BuildLengths: %v", err)
	}
	cb, err := NewCodebook(lengths)
	if err != nil {
		t.Fatalf("NewCodebook: %v", err)
	}
	var buf bytes.Buffer
	bw := bitio.NewWriter(&buf)
	enc := NewEncoder(cb, bw)
	for _, b := range data {
		if err := enc.WriteSymbol(int(b)); err != nil {
			t.Fatalf("WriteSymbol: %v", err)
		}
	}
	if err := bw.Close(); err != nil {
		t.Fatal(err)
	}
	br := bitio.NewReader(&buf)
	dec, err := NewDecoder(lengths, br)
	if err != nil {
		t.Fatalf("NewDecoder: %v", err)
	}
	for i, want := range data {
		got, err := dec.ReadSymbol()
		if err != nil {
			t.Fatalf("ReadSymbol %d: %v", i, err)
		}
		if got != int(want) {
			t.Fatalf("symbol %d = %d, want %d", i, got, want)
		}
	}
}

func TestRoundTripSimple(t *testing.T) {
	roundTrip(t, []byte("abracadabra, the quick brown fox jumps over the lazy dog"), MaxBits)
}

func TestRoundTripSingleSymbol(t *testing.T) {
	roundTrip(t, bytes.Repeat([]byte{42}, 100), MaxBits)
}

func TestRoundTripTwoSymbols(t *testing.T) {
	roundTrip(t, []byte{0, 1, 0, 0, 1, 0, 0, 0, 1}, MaxBits)
}

func TestRoundTripAllBytes(t *testing.T) {
	data := make([]byte, 256)
	for i := range data {
		data[i] = byte(i)
	}
	roundTrip(t, data, MaxBits)
}

func TestRoundTripSkewed(t *testing.T) {
	// Exponentially skewed frequencies force deep codes.
	var data []byte
	for i := 0; i < 20; i++ {
		data = append(data, bytes.Repeat([]byte{byte(i)}, 1<<uint(i%18))...)
	}
	roundTrip(t, data, MaxBits)
}

func TestLengthLimit(t *testing.T) {
	// Fibonacci-like frequencies make unconstrained Huffman deep.
	freqs := make([]int64, 32)
	a, b := int64(1), int64(1)
	for i := range freqs {
		freqs[i] = a
		a, b = b, a+b
	}
	for _, limit := range []int{5, 8, 10, MaxBits} {
		lengths, err := BuildLengths(freqs, limit)
		if err != nil {
			t.Fatalf("BuildLengths(limit=%d): %v", limit, err)
		}
		var kraft float64
		for sym, l := range lengths {
			if freqs[sym] > 0 && l == 0 {
				t.Fatalf("limit %d: symbol %d lost its code", limit, sym)
			}
			if int(l) > limit {
				t.Fatalf("limit %d: length %d exceeds limit", limit, l)
			}
			if l > 0 {
				kraft += 1 / float64(uint64(1)<<l)
			}
		}
		if kraft > 1.0000001 {
			t.Fatalf("limit %d: Kraft sum %v > 1", limit, kraft)
		}
		if _, err := NewCodebook(lengths); err != nil {
			t.Fatalf("limit %d: codebook rejected: %v", limit, err)
		}
	}
}

func TestNoSymbols(t *testing.T) {
	if _, err := BuildLengths(make([]int64, 256), MaxBits); err == nil {
		t.Fatal("BuildLengths on empty frequencies should fail")
	}
}

func TestBadMaxBits(t *testing.T) {
	freqs := []int64{1, 2, 3}
	if _, err := BuildLengths(freqs, 0); err == nil {
		t.Fatal("maxBits=0 should fail")
	}
	if _, err := BuildLengths(freqs, 64); err == nil {
		t.Fatal("maxBits=64 should fail")
	}
}

func TestOverfullLengthsRejected(t *testing.T) {
	// Three codes of length 1 violate Kraft.
	if _, err := NewCodebook([]uint8{1, 1, 1}); err == nil {
		t.Fatal("overfull length table accepted")
	}
}

func TestCanonicalCodeOrder(t *testing.T) {
	// lengths: a=2 b=1 c=3 d=3 -> canonical: b=0, a=10, c=110, d=111
	lengths := []uint8{2, 1, 3, 3}
	cb, err := NewCodebook(lengths)
	if err != nil {
		t.Fatal(err)
	}
	want := []uint32{0b10, 0b0, 0b110, 0b111}
	for sym, w := range want {
		if cb.Codes[sym] != w {
			t.Errorf("code[%d] = %b, want %b", sym, cb.Codes[sym], w)
		}
	}
}

func TestEncoderRejectsUncodedSymbol(t *testing.T) {
	cb, err := NewCodebook([]uint8{1, 1, 0})
	if err != nil {
		t.Fatal(err)
	}
	enc := NewEncoder(cb, bitio.NewWriter(&bytes.Buffer{}))
	if err := enc.WriteSymbol(2); err == nil {
		t.Fatal("encoding a symbol without a code should fail")
	}
}

func TestOptimalityOrdering(t *testing.T) {
	// More frequent symbols must never get longer codes.
	freqs := []int64{100, 50, 25, 12, 6, 3, 1, 1}
	lengths, err := BuildLengths(freqs, MaxBits)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(freqs); i++ {
		if freqs[i-1] > freqs[i] && lengths[i-1] > lengths[i] {
			t.Fatalf("freq %d > %d but length %d > %d", freqs[i-1], freqs[i], lengths[i-1], lengths[i])
		}
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(seed int64, n uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		size := int(n%2048) + 1
		data := make([]byte, size)
		// Mix of skewed and uniform distributions.
		nSyms := rng.Intn(255) + 1
		for i := range data {
			data[i] = byte(rng.Intn(nSyms))
		}
		freqs := make([]int64, 256)
		for _, b := range data {
			freqs[b]++
		}
		lengths, err := BuildLengths(freqs, MaxBits)
		if err != nil {
			return false
		}
		cb, err := NewCodebook(lengths)
		if err != nil {
			return false
		}
		var buf bytes.Buffer
		bw := bitio.NewWriter(&buf)
		enc := NewEncoder(cb, bw)
		for _, b := range data {
			if err := enc.WriteSymbol(int(b)); err != nil {
				return false
			}
		}
		if err := bw.Close(); err != nil {
			return false
		}
		dec, err := NewDecoder(lengths, bitio.NewReader(&buf))
		if err != nil {
			return false
		}
		for _, want := range data {
			got, err := dec.ReadSymbol()
			if err != nil || got != int(want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestReadSymbolWithoutTable checks that a decoder with no valid table —
// the zero value, or one whose last Reset failed — reports an error
// instead of decoding.
func TestReadSymbolWithoutTable(t *testing.T) {
	var zero Decoder
	if _, err := zero.ReadSymbol(); err == nil {
		t.Fatal("zero Decoder decoded a symbol")
	}
	br := bitio.NewReader(bytes.NewReader([]byte{0, 0}))
	dec, err := NewDecoder([]uint8{1, 1}, br)
	if err != nil {
		t.Fatal(err)
	}
	if err := dec.Reset([]uint8{1, 1, 1}, br); err == nil {
		t.Fatal("Reset accepted an over-full table")
	}
	if _, err := dec.ReadSymbol(); err == nil {
		t.Fatal("Decoder decoded a symbol after a failed Reset")
	}
}

// TestReadSymbolReadsNoAhead decodes real blocks and checks, after every
// symbol, that the decoder has pulled exactly the bytes holding the bits
// it consumed: the next block's framing byte follows in the same source.
func TestReadSymbolReadsNoAhead(t *testing.T) {
	for _, model := range losslessModels {
		syms := addrBlockSyms(t, model, 128<<10)
		stream := encodeBlock(t, blockLengths(t, syms), syms)
		src := &byteCounter{b: stream}
		br := bitio.NewReader(src)
		lengths := make([]uint8, mtf.NumSyms)
		if err := readLengths(br, lengths); err != nil {
			t.Fatal(err)
		}
		dec, err := NewDecoder(lengths, br)
		if err != nil {
			t.Fatal(err)
		}
		for i, want := range syms {
			got, err := dec.ReadSymbol()
			if err != nil || got != int(want) {
				t.Fatalf("%s: symbol %d = %d, %v; want %d", model, i, got, err, want)
			}
			if pulled := int64(src.n); pulled != (br.BitsRead()+7)/8 {
				t.Fatalf("%s: after symbol %d: pulled %d bytes for %d bits", model, i, pulled, br.BitsRead())
			}
		}
		if src.n != len(stream) {
			t.Fatalf("%s: pulled %d of %d bytes after EOB", model, src.n, len(stream))
		}
	}
}

// BenchmarkDecodeAddrBlock decodes the Huffman-coded symbol stream of one
// full-size bsc block (900 KB) of each lossless model — the first block of
// a bytesorted, BWT-transformed 128 Ki-address segment, as in the lossless
// benchmark workload — through ReadSymbol, length table included. Bytes
// are the block's decoded size.
func BenchmarkDecodeAddrBlock(b *testing.B) {
	for _, model := range losslessModels {
		syms := addrBlockSyms(b, model, 128<<10)
		stream := encodeBlock(b, blockLengths(b, syms), syms)
		b.Run(model, func(b *testing.B) {
			var br bitio.Reader
			var dec Decoder
			lengths := make([]uint8, mtf.NumSyms)
			src := bytes.NewReader(nil)
			b.SetBytes(blockSize)
			b.ReportAllocs()
			for b.Loop() {
				src.Reset(stream)
				br.Reset(src)
				if err := readLengths(&br, lengths); err != nil {
					b.Fatal(err)
				}
				if err := dec.Reset(lengths, &br); err != nil {
					b.Fatal(err)
				}
				for range syms {
					if _, err := dec.ReadSymbol(); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// BenchmarkEncodeAddrBlock codes the symbol stream of one full-size bsc
// block of each lossless model (the stream BenchmarkDecodeAddrBlock
// decodes) through WriteSymbol and a bit writer, length header included,
// as bsc does. Bytes are the block's decoded size.
func BenchmarkEncodeAddrBlock(b *testing.B) {
	for _, model := range losslessModels {
		syms := addrBlockSyms(b, model, 128<<10)
		lengths := blockLengths(b, syms)
		cb, err := NewCodebook(lengths)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(model, func(b *testing.B) {
			var buf bytes.Buffer
			b.SetBytes(blockSize)
			b.ReportAllocs()
			for b.Loop() {
				buf.Reset()
				bw := bitio.NewWriter(&buf)
				for _, l := range lengths {
					if err := bw.WriteBits(uint64(l), lenBits); err != nil {
						b.Fatal(err)
					}
				}
				enc := NewEncoder(cb, bw)
				for _, s := range syms {
					if err := enc.WriteSymbol(int(s)); err != nil {
						b.Fatal(err)
					}
				}
				if err := bw.Close(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkEncode(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	data := make([]byte, 64<<10)
	for i := range data {
		data[i] = byte(rng.Intn(32))
	}
	freqs := make([]int64, 256)
	for _, v := range data {
		freqs[v]++
	}
	lengths, _ := BuildLengths(freqs, MaxBits)
	cb, _ := NewCodebook(lengths)
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		bw := bitio.NewWriter(&buf)
		enc := NewEncoder(cb, bw)
		for _, v := range data {
			_ = enc.WriteSymbol(int(v))
		}
		_ = bw.Close()
	}
}
