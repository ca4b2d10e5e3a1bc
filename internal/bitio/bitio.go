// Package bitio provides bit-granular reading and writing on top of
// byte-oriented io.Reader and io.Writer streams.
//
// Bits are packed most-significant-bit first within each byte, which is the
// conventional layout for canonical Huffman codes: the first bit written
// occupies the top bit of the first byte. Writers must be flushed (via Close
// or Flush) to emit a final partial byte, which is zero-padded.
package bitio

import (
	"bufio"
	"errors"
	"io"
)

// ErrTooManyBits is returned when a single read or write requests more than
// 64 bits.
var ErrTooManyBits = errors.New("bitio: bit count out of range [0,64]")

// Writer writes bits to an underlying io.Writer, buffering them into bytes.
// The zero value is not usable; use NewWriter.
type Writer struct {
	w     *bufio.Writer
	acc   uint64 // bit accumulator; the low nacc bits are pending output
	nacc  uint   // number of pending bits in acc (always < 8 after a write)
	count int64  // total bits written
	err   error
}

// NewWriter returns a Writer emitting bits to w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: bufio.NewWriter(w)}
}

// WriteBits writes the low n bits of v, most significant first.
// n must be in [0,64].
func (w *Writer) WriteBits(v uint64, n uint) error {
	if w.err != nil {
		return w.err
	}
	if n > 64 {
		w.err = ErrTooManyBits
		return w.err
	}
	if n < 64 {
		v &= (1 << n) - 1
	}
	if w.nacc+n > 64 {
		// The bits do not fit beside the pending ones: write the top
		// n-32 first, so that each part does.
		if err := w.WriteBits(v>>32, n-32); err != nil {
			return err
		}
		v, n = v&(1<<32-1), 32
	}
	w.count += int64(n)
	w.acc = w.acc<<n | v // a shift by 64 gives 0, as n = 64 needs
	w.nacc += n
	for w.nacc >= 8 {
		w.nacc -= 8
		if err := w.w.WriteByte(byte(w.acc >> w.nacc)); err != nil {
			w.err = err
			return err
		}
	}
	return nil
}

// WriteBit writes a single bit (any nonzero b is treated as 1).
func (w *Writer) WriteBit(b uint) error {
	if b != 0 {
		b = 1
	}
	return w.WriteBits(uint64(b), 1)
}

// BitsWritten reports the total number of bits written so far,
// excluding any zero padding added by Flush or Close.
func (w *Writer) BitsWritten() int64 { return w.count }

// Flush pads the current byte with zero bits and flushes the underlying
// buffered writer. Writing may continue after a Flush; subsequent bits
// start on a byte boundary.
func (w *Writer) Flush() error {
	if w.err != nil {
		return w.err
	}
	if w.nacc > 0 {
		if err := w.w.WriteByte(byte(w.acc << (8 - w.nacc))); err != nil {
			w.err = err
			return err
		}
		w.nacc = 0
	}
	if err := w.w.Flush(); err != nil {
		w.err = err
		return err
	}
	return nil
}

// Close flushes pending bits. It does not close the underlying writer.
func (w *Writer) Close() error { return w.Flush() }

// Reader reads bits from an underlying io.Reader.
// The zero value is not usable; use NewReader.
//
// A Reader pulls whole bytes from its source only when a read needs a bit
// it does not yet hold, so after any read the source sits just past the
// byte holding the last bit returned. ReadBits itself never buffers more
// than 7 bits; a table-driven decoder can buffer more with FillByte,
// inspect them with Buffered and consume them with SkipBits, and ReadBits
// and AlignByte then take the buffered bits first.
type Reader struct {
	r     io.ByteReader
	acc   uint64 // bit accumulator; low nacc bits are valid, MSB-first order
	nacc  uint   // valid bits in acc, at most 64
	count int64
	err   error
}

// NewReader returns a Reader consuming bits from r. If r already implements
// io.ByteReader it is used directly — no read-ahead happens beyond single
// bytes, so a Reader can share an underlying stream with other framing
// logic. Otherwise r is wrapped in a bufio.Reader (which does read ahead).
func NewReader(r io.Reader) *Reader {
	br, ok := r.(io.ByteReader)
	if !ok {
		br = bufio.NewReader(r)
	}
	return &Reader{r: br}
}

// Reset re-points the Reader at a new byte source, discarding any
// buffered bits, error state and counters. It gives reusers of a Reader
// value the same behaviour as a fresh NewReader(src).
func (r *Reader) Reset(src io.Reader) {
	br, ok := src.(io.ByteReader)
	if !ok {
		br = bufio.NewReader(src)
	}
	*r = Reader{r: br}
}

// ReadBits reads n bits (MSB first) and returns them in the low n bits of
// the result. n must be in [0,64]. At end of stream it returns io.EOF if no
// bits were consumed, io.ErrUnexpectedEOF otherwise.
func (r *Reader) ReadBits(n uint) (uint64, error) {
	if r.err != nil {
		return 0, r.err
	}
	if n > 64 {
		return 0, ErrTooManyBits
	}
	var v uint64
	got := uint(0)
	for got < n {
		if r.nacc == 0 {
			b, err := r.r.ReadByte()
			if err != nil {
				if err == io.EOF && got > 0 {
					err = io.ErrUnexpectedEOF
				}
				r.err = err
				return 0, err
			}
			r.acc = uint64(b)
			r.nacc = 8
		}
		take := n - got
		if take > r.nacc {
			take = r.nacc
		}
		shift := r.nacc - take
		chunk := (r.acc >> shift) & ((1 << take) - 1)
		v = (v << take) | chunk
		r.nacc -= take
		got += take
	}
	r.count += int64(n)
	return v, nil
}

// ReadBit reads a single bit.
func (r *Reader) ReadBit() (uint, error) {
	v, err := r.ReadBits(1)
	return uint(v), err
}

// BitsRead reports the total number of bits successfully read.
func (r *Reader) BitsRead() int64 { return r.count }

// AlignByte discards bits up to the next byte boundary. Whole bytes that
// FillByte buffered are kept.
func (r *Reader) AlignByte() {
	r.nacc -= r.nacc % 8
}

// Buffered returns the bits already pulled from the source but not yet
// consumed: the next bit to be read is bit n-1 of bits, and bits above n
// are zero.
func (r *Reader) Buffered() (bits uint64, n uint) {
	return r.acc & (1<<r.nacc - 1), r.nacc
}

// FillByte pulls one more byte from the source into the buffer. It must
// only be called with at most 56 bits buffered. At end of stream it
// returns io.EOF, which, like any source error, sticks: later reads
// return it too.
func (r *Reader) FillByte() error {
	if r.err != nil {
		return r.err
	}
	b, err := r.r.ReadByte()
	if err != nil {
		r.err = err
		return err
	}
	r.acc = r.acc<<8 | uint64(b)
	r.nacc += 8
	return nil
}

// SkipBits consumes n buffered bits, n ≤ the n that Buffered reports.
func (r *Reader) SkipBits(n uint) {
	r.nacc -= n
	r.count += int64(n)
}
