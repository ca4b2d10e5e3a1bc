package bitio

import (
	"bytes"
	"io"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestWriteReadSingleBits(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	bits := []uint{1, 0, 1, 1, 0, 0, 1, 0, 1, 1, 1}
	for _, b := range bits {
		if err := w.WriteBit(b); err != nil {
			t.Fatalf("WriteBit: %v", err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if got := w.BitsWritten(); got != int64(len(bits)) {
		t.Fatalf("BitsWritten = %d, want %d", got, len(bits))
	}
	r := NewReader(&buf)
	for i, want := range bits {
		got, err := r.ReadBit()
		if err != nil {
			t.Fatalf("ReadBit %d: %v", i, err)
		}
		if got != want {
			t.Fatalf("bit %d = %d, want %d", i, got, want)
		}
	}
}

func TestMSBFirstPacking(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	// 0b1010_1100 written as two nibbles.
	if err := w.WriteBits(0b1010, 4); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteBits(0b1100, 4); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if got := buf.Bytes(); len(got) != 1 || got[0] != 0b1010_1100 {
		t.Fatalf("packed byte = %08b, want 10101100", got[0])
	}
}

func TestZeroPadding(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.WriteBits(0b111, 3); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if got := buf.Bytes(); len(got) != 1 || got[0] != 0b1110_0000 {
		t.Fatalf("padded byte = %08b, want 11100000", got[0])
	}
}

func TestWriteBitsMasksHighBits(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	// Only low 4 bits of 0xFF should be used.
	if err := w.WriteBits(0xFF, 4); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteBits(0x0, 4); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if got := buf.Bytes()[0]; got != 0xF0 {
		t.Fatalf("byte = %02x, want f0", got)
	}
}

func TestTooManyBits(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.WriteBits(0, 65); err != ErrTooManyBits {
		t.Fatalf("WriteBits(65) err = %v, want ErrTooManyBits", err)
	}
	r := NewReader(&buf)
	if _, err := r.ReadBits(65); err != ErrTooManyBits {
		t.Fatalf("ReadBits(65) err = %v, want ErrTooManyBits", err)
	}
}

func TestEOFBehaviour(t *testing.T) {
	r := NewReader(bytes.NewReader(nil))
	if _, err := r.ReadBits(1); err != io.EOF {
		t.Fatalf("empty read err = %v, want io.EOF", err)
	}
	r = NewReader(bytes.NewReader([]byte{0xAB}))
	if _, err := r.ReadBits(4); err != nil {
		t.Fatal(err)
	}
	if _, err := r.ReadBits(8); err != io.ErrUnexpectedEOF {
		t.Fatalf("partial read err = %v, want ErrUnexpectedEOF", err)
	}
}

func TestZeroBitOps(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.WriteBits(123, 0); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Fatalf("zero-bit write produced %d bytes", buf.Len())
	}
	r := NewReader(&buf)
	v, err := r.ReadBits(0)
	if err != nil || v != 0 {
		t.Fatalf("ReadBits(0) = %d, %v", v, err)
	}
}

func TestFull64BitValues(t *testing.T) {
	vals := []uint64{0, 1, 0xFFFFFFFFFFFFFFFF, 0x8000000000000000, 0x0123456789ABCDEF}
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for _, v := range vals {
		if err := w.WriteBits(v, 64); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r := NewReader(&buf)
	for i, want := range vals {
		got, err := r.ReadBits(64)
		if err != nil {
			t.Fatalf("value %d: %v", i, err)
		}
		if got != want {
			t.Fatalf("value %d = %#x, want %#x", i, got, want)
		}
	}
}

func TestAlignByte(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	_ = w.WriteBits(0b101, 3)
	_ = w.Flush() // pad to byte boundary
	_ = w.WriteBits(0xCD, 8)
	_ = w.Close()

	r := NewReader(&buf)
	if v, _ := r.ReadBits(3); v != 0b101 {
		t.Fatalf("prefix = %03b", v)
	}
	r.AlignByte()
	if v, _ := r.ReadBits(8); v != 0xCD {
		t.Fatalf("aligned byte = %#x, want 0xcd", v)
	}
}

func TestFlushThenContinue(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	_ = w.WriteBits(0xA, 4)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	_ = w.WriteBits(0xB, 4)
	_ = w.Close()
	want := []byte{0xA0, 0xB0}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("bytes = %x, want %x", buf.Bytes(), want)
	}
}

// Property: any sequence of (value, width) writes reads back identically.
func TestRoundTripProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		count := int(n%64) + 1
		type item struct {
			v uint64
			n uint
		}
		items := make([]item, count)
		var buf bytes.Buffer
		w := NewWriter(&buf)
		for i := range items {
			width := uint(rng.Intn(64) + 1)
			v := rng.Uint64()
			if width < 64 {
				v &= (1 << width) - 1
			}
			items[i] = item{v, width}
			if err := w.WriteBits(v, width); err != nil {
				return false
			}
		}
		if err := w.Close(); err != nil {
			return false
		}
		r := NewReader(&buf)
		for _, it := range items {
			got, err := r.ReadBits(it.n)
			if err != nil || got != it.v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// serialWriter is the bit-at-a-time reference Writer is checked against:
// bits go MSB first into bytes, and Flush zero-pads the last byte.
type serialWriter struct {
	out   []byte
	nbits int64 // bits written, padding included
	count int64 // bits written, padding excluded
}

func (s *serialWriter) writeBits(v uint64, n uint) {
	for i := int(n) - 1; i >= 0; i-- {
		if s.nbits%8 == 0 {
			s.out = append(s.out, 0)
		}
		if v>>uint(i)&1 != 0 {
			s.out[len(s.out)-1] |= 0x80 >> uint(s.nbits%8)
		}
		s.nbits++
		s.count++
	}
}

func (s *serialWriter) flush() {
	s.nbits = int64(len(s.out)) * 8
}

// TestWriterMatchesSerialReference drives Writer and the bit-serial
// reference with random widths 0..64 (64 often lands on a non-empty
// accumulator, which takes the split path) and random interleaved
// Flushes: the bytes and BitsWritten must match after every step. High
// bits above the width are set to check they are masked.
func TestWriterMatchesSerialReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	split := 0 // 64-bit writes onto a non-empty accumulator
	for round := 0; round < 200; round++ {
		var buf bytes.Buffer
		w := NewWriter(&buf)
		var ref serialWriter
		for op := 0; op < 300; op++ {
			if rng.Intn(16) == 0 {
				if err := w.Flush(); err != nil {
					t.Fatal(err)
				}
				ref.flush()
				if !bytes.Equal(buf.Bytes(), ref.out) {
					t.Fatalf("round %d op %d: after Flush bytes %x, want %x", round, op, buf.Bytes(), ref.out)
				}
				continue
			}
			n := uint(rng.Intn(65))
			v := rng.Uint64()
			if n == 64 && ref.nbits%8 != 0 {
				split++
			}
			if err := w.WriteBits(v, n); err != nil {
				t.Fatal(err)
			}
			if n < 64 {
				v &= 1<<n - 1
			}
			ref.writeBits(v, n)
			if w.BitsWritten() != ref.count {
				t.Fatalf("round %d op %d: BitsWritten %d, want %d", round, op, w.BitsWritten(), ref.count)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		ref.flush()
		if !bytes.Equal(buf.Bytes(), ref.out) {
			t.Fatalf("round %d: bytes %x, want %x", round, buf.Bytes(), ref.out)
		}
	}
	if split == 0 {
		t.Fatal("no 64-bit write landed on a non-empty accumulator")
	}
}

func TestBitsReadCounter(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	_ = w.WriteBits(0xFFFF, 16)
	_ = w.Close()
	r := NewReader(&buf)
	_, _ = r.ReadBits(7)
	_, _ = r.ReadBits(9)
	if r.BitsRead() != 16 {
		t.Fatalf("BitsRead = %d, want 16", r.BitsRead())
	}
}

func BenchmarkWriterWriteBits(b *testing.B) {
	w := NewWriter(io.Discard)
	b.SetBytes(8)
	for i := 0; i < b.N; i++ {
		_ = w.WriteBits(uint64(i), 64)
	}
}

// TestFillBufferedSkip drives the table-decoder accessors: FillByte
// buffers whole bytes, Buffered shows exactly the unconsumed bits, and
// SkipBits consumes them and counts them as read.
func TestFillBufferedSkip(t *testing.T) {
	r := NewReader(bytes.NewReader([]byte{0xA5, 0x3C, 0xF0}))
	if bits, n := r.Buffered(); bits != 0 || n != 0 {
		t.Fatalf("fresh Buffered = %#x/%d, want 0/0", bits, n)
	}
	for _, err := range []error{r.FillByte(), r.FillByte()} {
		if err != nil {
			t.Fatal(err)
		}
	}
	if bits, n := r.Buffered(); bits != 0xA53C || n != 16 {
		t.Fatalf("Buffered = %#x/%d, want 0xa53c/16", bits, n)
	}
	r.SkipBits(3)
	if bits, n := r.Buffered(); bits != 0x053C || n != 13 {
		t.Fatalf("after SkipBits(3): Buffered = %#x/%d, want 0x53c/13", bits, n)
	}
	if r.BitsRead() != 3 {
		t.Fatalf("BitsRead = %d, want 3", r.BitsRead())
	}
	if err := r.FillByte(); err != nil {
		t.Fatal(err)
	}
	if bits, n := r.Buffered(); bits != 0x053CF0 || n != 21 {
		t.Fatalf("Buffered = %#x/%d, want 0x53cf0/21", bits, n)
	}
	if err := r.FillByte(); err != io.EOF {
		t.Fatalf("FillByte at end = %v, want io.EOF", err)
	}
	if _, err := r.ReadBits(1); err != io.EOF {
		t.Fatalf("ReadBits after a failed FillByte = %v, want the sticky io.EOF", err)
	}
}

// TestFillByteHoldsFullWord buffers eight bytes (64 bits, the accumulator's
// width) and reads them back through Buffered.
func TestFillByteHoldsFullWord(t *testing.T) {
	src := []byte{0x01, 0x23, 0x45, 0x67, 0x89, 0xAB, 0xCD, 0xEF}
	r := NewReader(bytes.NewReader(src))
	for range src {
		if err := r.FillByte(); err != nil {
			t.Fatal(err)
		}
	}
	if bits, n := r.Buffered(); bits != 0x0123456789ABCDEF || n != 64 {
		t.Fatalf("Buffered = %#x/%d, want 0x123456789abcdef/64", bits, n)
	}
	r.SkipBits(60)
	if bits, n := r.Buffered(); bits != 0xF || n != 4 {
		t.Fatalf("after SkipBits(60): Buffered = %#x/%d, want 0xf/4", bits, n)
	}
}

// TestReadBitsDrainsFilledBytes reads across more than 8 buffered bits:
// ReadBits must take the buffered bits first, in order, and pull new
// bytes only once they run out.
func TestReadBitsDrainsFilledBytes(t *testing.T) {
	src := &countingSource{b: []byte{0xDE, 0xAD, 0xBE, 0xEF}}
	r := NewReader(src)
	_ = r.FillByte()
	_ = r.FillByte()
	r.SkipBits(4)
	// 12 bits buffered (0xEAD); read 8 of them, then 12 more across the
	// buffer's end.
	if v, err := r.ReadBits(8); err != nil || v != 0xEA {
		t.Fatalf("ReadBits(8) = %#x, %v; want 0xea", v, err)
	}
	if src.n != 2 {
		t.Fatalf("pulled %d bytes with 4 bits still buffered, want 2", src.n)
	}
	if v, err := r.ReadBits(12); err != nil || v != 0xDBE {
		t.Fatalf("ReadBits(12) = %#x, %v; want 0xdbe", v, err)
	}
	if r.BitsRead() != 24 {
		t.Fatalf("BitsRead = %d, want 24", r.BitsRead())
	}
	if v, err := r.ReadBits(8); err != nil || v != 0xEF {
		t.Fatalf("ReadBits(8) = %#x, %v; want 0xef", v, err)
	}
}

// TestAlignByteKeepsFilledBytes aligns with more than 8 bits buffered:
// only the partial byte's remaining bits are dropped.
func TestAlignByteKeepsFilledBytes(t *testing.T) {
	r := NewReader(bytes.NewReader([]byte{0xFF, 0x5A, 0xC3}))
	_ = r.FillByte()
	_ = r.FillByte()
	_ = r.FillByte()
	r.SkipBits(3)
	r.AlignByte()
	if bits, n := r.Buffered(); bits != 0x5AC3 || n != 16 {
		t.Fatalf("after AlignByte: Buffered = %#x/%d, want 0x5ac3/16", bits, n)
	}
	r.AlignByte() // already aligned: a no-op
	if v, err := r.ReadBits(16); err != nil || v != 0x5AC3 {
		t.Fatalf("ReadBits(16) = %#x, %v; want 0x5ac3", v, err)
	}
}

// countingSource is an io.ByteReader that counts the bytes pulled.
type countingSource struct {
	b []byte
	n int
}

func (c *countingSource) ReadByte() (byte, error) {
	if c.n == len(c.b) {
		return 0, io.EOF
	}
	c.n++
	return c.b[c.n-1], nil
}

func (c *countingSource) Read(p []byte) (int, error) {
	if c.n == len(c.b) {
		return 0, io.EOF
	}
	k := copy(p, c.b[c.n:])
	c.n += k
	return k, nil
}
