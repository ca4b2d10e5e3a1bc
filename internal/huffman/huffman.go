// Package huffman implements length-limited canonical Huffman coding.
//
// It is used by the bsc block compressor as the entropy-coding stage. Code
// lengths are computed with a standard Huffman construction and then, if
// necessary, rebalanced to respect a maximum code length while keeping the
// Kraft inequality satisfied (the same strategy used by zlib). Codes are
// canonical: within a length, codes are assigned in increasing symbol order,
// so a decoder needs only the length table.
//
// Decoding is table-driven, as in bzip2 and compress/flate: Decoder.Reset
// builds a 1<<tbits-entry lookup table (tbits = min(10, longest code))
// that maps the next tbits bits of the stream to a symbol and its code
// length, so every code of at most tbits bits decodes in one lookup; longer
// codes finish with a canonical walk, one length at a time. The decoder
// never reads ahead: it pulls a byte from the bitio.Reader's source only
// when the symbol it is decoding has bits in that byte, so after each
// symbol the source sits just past the byte holding the symbol's last bit
// and framing that follows the coded stream (the next bsc block) can be
// read from the same source.
package huffman

import (
	"errors"
	"fmt"
	"sort"

	"atc/internal/bitio"
)

// MaxBits is the default maximum code length supported by this package.
const MaxBits = 20

var (
	errNoSymbols  = errors.New("huffman: no symbols with nonzero frequency")
	errBadLengths = errors.New("huffman: invalid code length table")
)

// BuildLengths computes a length-limited Huffman code-length table from
// symbol frequencies. Symbols with zero frequency get length 0 (no code).
// If exactly one symbol has nonzero frequency it is assigned length 1.
// maxBits must be in [1, 57]; lengths never exceed it.
func BuildLengths(freqs []int64, maxBits int) ([]uint8, error) {
	if maxBits < 1 || maxBits > 57 {
		return nil, fmt.Errorf("huffman: maxBits %d out of range", maxBits)
	}
	n := len(freqs)
	lengths := make([]uint8, n)
	type node struct {
		freq        int64
		sym         int // >= 0 for leaf, -1 for internal
		left, right int // indexes into nodes
	}
	var live []int // heap of node indexes
	nodes := make([]node, 0, 2*n)
	for sym, f := range freqs {
		if f > 0 {
			nodes = append(nodes, node{freq: f, sym: sym, left: -1, right: -1})
			live = append(live, len(nodes)-1)
		}
	}
	switch len(live) {
	case 0:
		return nil, errNoSymbols
	case 1:
		lengths[nodes[live[0]].sym] = 1
		return lengths, nil
	}
	// Simple heap ordered by frequency (ties by node index for determinism).
	less := func(a, b int) bool {
		if nodes[a].freq != nodes[b].freq {
			return nodes[a].freq < nodes[b].freq
		}
		return a < b
	}
	down := func(h []int, i int) {
		for {
			l, r := 2*i+1, 2*i+2
			m := i
			if l < len(h) && less(h[l], h[m]) {
				m = l
			}
			if r < len(h) && less(h[r], h[m]) {
				m = r
			}
			if m == i {
				return
			}
			h[i], h[m] = h[m], h[i]
			i = m
		}
	}
	for i := len(live)/2 - 1; i >= 0; i-- {
		down(live, i)
	}
	pop := func() int {
		top := live[0]
		live[0] = live[len(live)-1]
		live = live[:len(live)-1]
		down(live, 0)
		return top
	}
	push := func(idx int) {
		live = append(live, idx)
		i := len(live) - 1
		for i > 0 {
			p := (i - 1) / 2
			if !less(live[i], live[p]) {
				break
			}
			live[i], live[p] = live[p], live[i]
			i = p
		}
	}
	for len(live) > 1 {
		a := pop()
		b := pop()
		nodes = append(nodes, node{freq: nodes[a].freq + nodes[b].freq, sym: -1, left: a, right: b})
		push(len(nodes) - 1)
	}
	// Depth-first walk assigning depths.
	root := live[0]
	type frame struct{ idx, depth int }
	stack := []frame{{root, 0}}
	maxSeen := 0
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		nd := nodes[f.idx]
		if nd.sym >= 0 {
			d := f.depth
			if d == 0 {
				d = 1 // cannot happen for >=2 symbols, defensive
			}
			lengths[nd.sym] = uint8(d)
			if d > maxSeen {
				maxSeen = d
			}
			continue
		}
		stack = append(stack, frame{nd.left, f.depth + 1}, frame{nd.right, f.depth + 1})
	}
	if maxSeen > maxBits {
		limitLengths(freqs, lengths, maxBits)
	}
	return lengths, nil
}

// limitLengths rebalances an over-deep code to respect maxBits. It clamps
// all lengths to maxBits, then restores the Kraft inequality by deepening
// the shallowest available codes, and finally reassigns lengths to symbols
// in frequency order so frequent symbols keep the short codes.
func limitLengths(freqs []int64, lengths []uint8, maxBits int) {
	blCount := make([]int, maxBits+1)
	var syms []int
	for sym, l := range lengths {
		if l == 0 {
			continue
		}
		if int(l) > maxBits {
			l = uint8(maxBits)
		}
		blCount[l]++
		syms = append(syms, sym)
	}
	// Kraft sum in units of 2^-maxBits.
	var kraft int64
	for l := 1; l <= maxBits; l++ {
		kraft += int64(blCount[l]) << uint(maxBits-l)
	}
	limit := int64(1) << uint(maxBits)
	for kraft > limit {
		// Move one code from the deepest length < maxBits down one level.
		l := maxBits - 1
		for l > 0 && blCount[l] == 0 {
			l--
		}
		blCount[l]--
		blCount[l+1]++
		kraft -= int64(1) << uint(maxBits-l-1)
	}
	// Reassign: most frequent symbols get shortest lengths.
	sort.Slice(syms, func(i, j int) bool {
		if freqs[syms[i]] != freqs[syms[j]] {
			return freqs[syms[i]] > freqs[syms[j]]
		}
		return syms[i] < syms[j]
	})
	idx := 0
	for l := 1; l <= maxBits; l++ {
		for k := 0; k < blCount[l]; k++ {
			lengths[syms[idx]] = uint8(l)
			idx++
		}
	}
}

// Codebook holds canonical codes derived from a length table.
type Codebook struct {
	Lengths []uint8
	Codes   []uint32
	maxLen  int
}

// NewCodebook builds canonical codes from a length table. It validates that
// the lengths satisfy the Kraft inequality with equality allowed (over-full
// tables are rejected; under-full tables are permitted, as produced by the
// single-symbol case).
func NewCodebook(lengths []uint8) (*Codebook, error) {
	maxLen := 0
	for _, l := range lengths {
		if int(l) > maxLen {
			maxLen = int(l)
		}
	}
	if maxLen == 0 || maxLen > 57 {
		return nil, errBadLengths
	}
	blCount := make([]int, maxLen+1)
	for _, l := range lengths {
		if l > 0 {
			blCount[l]++
		}
	}
	var kraft int64
	for l := 1; l <= maxLen; l++ {
		kraft += int64(blCount[l]) << uint(maxLen-l)
	}
	if kraft > int64(1)<<uint(maxLen) {
		return nil, errBadLengths
	}
	nextCode := make([]uint32, maxLen+2)
	code := uint32(0)
	for l := 1; l <= maxLen; l++ {
		code = (code + uint32(blCount[l-1])) << 1
		nextCode[l] = code
	}
	codes := make([]uint32, len(lengths))
	for sym, l := range lengths {
		if l == 0 {
			continue
		}
		codes[sym] = nextCode[l]
		nextCode[l]++
	}
	return &Codebook{Lengths: append([]uint8(nil), lengths...), Codes: codes, maxLen: maxLen}, nil
}

// MaxLen reports the longest code length in the book.
func (cb *Codebook) MaxLen() int { return cb.maxLen }

// Encoder writes symbols as canonical Huffman codes to a bit stream.
type Encoder struct {
	cb *Codebook
	w  *bitio.Writer
}

// NewEncoder returns an Encoder using codebook cb on bit writer w.
func NewEncoder(cb *Codebook, w *bitio.Writer) *Encoder {
	return &Encoder{cb: cb, w: w}
}

// WriteSymbol emits the code for sym.
func (e *Encoder) WriteSymbol(sym int) error {
	l := e.cb.Lengths[sym]
	if l == 0 {
		return fmt.Errorf("huffman: symbol %d has no code", sym)
	}
	return e.w.WriteBits(uint64(e.cb.Codes[sym]), uint(l))
}

// tableBits is the widest lookup of the decode table: codes of at most
// this many bits decode in one step.
const tableBits = 10

// Decoder reads canonical Huffman codes from a bit stream.
type Decoder struct {
	r *bitio.Reader
	// table maps the next tbits bits of the stream to sym<<8 | length for
	// every code of at most tbits bits; 0 marks a longer code (or none).
	table []uint32
	tbits uint
	// Canonical decode tables indexed by code length, for codes longer
	// than tbits.
	firstCode []uint32 // first canonical code of each length
	count     []int    // number of codes of each length
	offset    []int    // index into symOrder of first symbol of each length
	symOrder  []int    // symbols sorted by (length, symbol)
	maxLen    int
}

// NewDecoder builds a Decoder for the given length table reading from r.
func NewDecoder(lengths []uint8, r *bitio.Reader) (*Decoder, error) {
	d := &Decoder{}
	if err := d.Reset(lengths, r); err != nil {
		return nil, err
	}
	return d, nil
}

// Reset re-initialises d for a new length table and bit reader, reusing
// its internal decode tables — equivalent to NewDecoder but, once the
// decoder has seen a table of equal or greater depth and symbol count,
// allocation-free. It validates the table the same way (the Kraft check
// NewCodebook performs, without materialising codes); on error d is left
// unusable until a successful Reset.
func (d *Decoder) Reset(lengths []uint8, r *bitio.Reader) error {
	maxLen := 0
	for _, l := range lengths {
		if int(l) > maxLen {
			maxLen = int(l)
		}
	}
	if maxLen == 0 || maxLen > 57 {
		d.maxLen = 0
		return errBadLengths
	}
	if cap(d.count) < maxLen+1 {
		d.count = make([]int, maxLen+1)
		d.firstCode = make([]uint32, maxLen+1)
		d.offset = make([]int, maxLen+1)
	} else {
		d.count = d.count[:maxLen+1]
		d.firstCode = d.firstCode[:maxLen+1]
		d.offset = d.offset[:maxLen+1]
		for i := range d.count {
			d.count[i] = 0
		}
	}
	for _, l := range lengths {
		if l > 0 {
			d.count[l]++
		}
	}
	var kraft int64
	for l := 1; l <= maxLen; l++ {
		kraft += int64(d.count[l]) << uint(maxLen-l)
	}
	if kraft > int64(1)<<uint(maxLen) {
		d.maxLen = 0
		return errBadLengths
	}
	code := uint32(0)
	total := 0
	for l := 1; l <= maxLen; l++ {
		if l > 1 {
			code = (code + uint32(d.count[l-1])) << 1
		}
		d.firstCode[l] = code
		d.offset[l] = total
		total += d.count[l]
	}
	if cap(d.symOrder) < total {
		d.symOrder = make([]int, 0, total)
	}
	d.symOrder = d.symOrder[:0]
	for l := 1; l <= maxLen; l++ {
		for sym, sl := range lengths {
			if int(sl) == l {
				d.symOrder = append(d.symOrder, sym)
			}
		}
	}
	// Every code of at most tbits bits owns the 1<<(tbits-l) table
	// entries it prefixes. Kraft ≤ 1 keeps canonical codes inside their
	// length's code space, so the ranges are disjoint and in bounds.
	d.tbits = uint(min(tableBits, maxLen))
	if cap(d.table) < 1<<d.tbits {
		d.table = make([]uint32, 1<<tableBits)
	}
	d.table = d.table[:1<<d.tbits]
	clear(d.table)
	for l := uint(1); l <= d.tbits; l++ {
		for i := 0; i < d.count[l]; i++ {
			e := uint32(d.symOrder[d.offset[l]+i])<<8 | uint32(l)
			lo := (d.firstCode[l] + uint32(i)) << (d.tbits - l)
			for j := lo; j < lo+1<<(d.tbits-l); j++ {
				d.table[j] = e
			}
		}
	}
	d.r = r
	d.maxLen = maxLen
	return nil
}

// ReadSymbol decodes and returns the next symbol.
//
// It looks the next tbits bits up in the table, zero-padding the index
// when fewer are buffered, and pulls one more byte only when the entry is
// empty or longer than the bits buffered: then the symbol's code is
// longer than the bits buffered, so the byte holds some of it. Codes
// longer than tbits finish with a canonical walk from length tbits+1. The
// reader therefore never consumes a byte past the one holding the
// symbol's last bit.
func (d *Decoder) ReadSymbol() (int, error) {
	if d.maxLen == 0 { // zero value, or the last Reset failed
		return 0, errBadLengths
	}
	bits, n := d.r.Buffered()
	tbits := d.tbits
	var idx uint64 // the next tbits bits; Buffered zeroes those above n
	for {
		if n >= tbits {
			idx = bits >> (n - tbits)
		} else {
			idx = bits << (tbits - n)
		}
		e := d.table[idx]
		if l := uint(e & 0xff); l != 0 && l <= n {
			d.r.SkipBits(l)
			return int(e >> 8), nil
		}
		if n >= tbits {
			break
		}
		if err := d.r.FillByte(); err != nil {
			return 0, err
		}
		bits, n = d.r.Buffered()
	}
	code := uint32(idx)
	for l := int(tbits) + 1; l <= d.maxLen; l++ {
		if n < uint(l) {
			if err := d.r.FillByte(); err != nil {
				return 0, err
			}
			bits, n = d.r.Buffered()
		}
		code = code<<1 | uint32(bits>>(n-uint(l))&1)
		if i := int(code) - int(d.firstCode[l]); i >= 0 && i < d.count[l] {
			d.r.SkipBits(uint(l))
			return d.symOrder[d.offset[l]+i], nil
		}
	}
	return 0, errBadLengths
}
