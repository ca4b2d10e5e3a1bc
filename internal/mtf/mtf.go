// Package mtf implements the move-to-front transform and the zero-run
// (RUNA/RUNB) encoding used between the Burrows–Wheeler transform and the
// entropy coder, mirroring the bzip2 pipeline that the paper uses as its
// byte-level back end.
//
// Symbol space of the run-length encoded stream:
//
//	0        RUNA (contributes 1<<k to a zero-run length)
//	1        RUNB (contributes 2<<k to a zero-run length)
//	2..256   MTF values 1..255 (value v encodes as symbol v+1)
//	257      EOB, end of block
//
// Zero runs are encoded in bijective base 2, exactly as in bzip2: a run of
// length r emits digits d0,d1,... where digit k is RUNA (weight 1<<k) or
// RUNB (weight 2<<k) and r = Σ weight(k).
package mtf

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
)

// Symbol constants for the run-length encoded MTF stream.
const (
	RunA    = 0
	RunB    = 1
	EOB     = 257
	NumSyms = 258 // alphabet size for the entropy coder

	// MaxBlockSize is the largest output DecodeInto reconstructs; a
	// symbol stream whose zero runs would grow past it is corrupt. The
	// bsc block limit is defined from it.
	MaxBlockSize = 16 << 20
)

var errCorrupt = errors.New("mtf: corrupt symbol stream")

// Encode applies move-to-front to data and returns the zero-run encoded
// symbol stream, terminated by EOB.
//
// A byte equal to the front of the MTF table starts a zero run, and the
// run lasts exactly as long as the bytes stay equal, so each run is
// measured whole and its digits emitted in one go.
func Encode(data []byte) []uint16 {
	var order [256]byte
	for i := range order {
		order[i] = byte(i)
	}
	syms := make([]uint16, 0, len(data)/2+16)
	for i := 0; i < len(data); {
		b := data[i]
		if b == order[0] {
			r := runLen(data[i:], b)
			syms = appendRun(syms, r)
			i += r
			continue
		}
		pos := 1 + bytes.IndexByte(order[1:], b)
		copy(order[1:pos+1], order[:pos])
		order[0] = b
		syms = append(syms, uint16(pos+1))
		i++
	}
	return append(syms, EOB)
}

// runLen returns how many leading bytes of data equal b; data[0] == b.
// It compares eight bytes per step.
func runLen(data []byte, b byte) int {
	pat := uint64(b) * 0x0101010101010101
	i := 1
	for ; i+8 <= len(data); i += 8 {
		if x := binary.LittleEndian.Uint64(data[i:]) ^ pat; x != 0 {
			return i + bits.TrailingZeros64(x)/8
		}
	}
	for i < len(data) && data[i] == b {
		i++
	}
	return i
}

// appendRun appends the bijective base-2 RUNA/RUNB digits of a zero run
// of length r > 0.
func appendRun(syms []uint16, r int) []uint16 {
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

// Decode reverses Encode. It consumes symbols up to and including the first
// EOB and returns the reconstructed bytes together with the number of
// symbols consumed.
func Decode(syms []uint16) ([]byte, int, error) {
	return DecodeInto(make([]byte, 0, len(syms)*2), syms)
}

// DecodeInto is Decode appending into dst (which is truncated first): a
// caller holding a reusable buffer — the bsc Reader recycling its block
// working state — decodes without allocating once dst has grown to the
// workload's block size. The returned slice shares dst's storage unless
// growth forced a reallocation. A zero run that would take the output
// past MaxBlockSize is rejected before anything is appended, so a short
// hostile stream cannot demand an unbounded allocation.
func DecodeInto(dst []byte, syms []uint16) ([]byte, int, error) {
	var order [256]byte
	for i := range order {
		order[i] = byte(i)
	}
	out := dst[:0]
	i := 0
	for i < len(syms) {
		s := syms[i]
		switch {
		case s == EOB:
			return out, i + 1, nil
		case s == RunA || s == RunB:
			// Collect the whole bijective base-2 run. Digit k adds at
			// least 1<<k, so the bound check fails within
			// log2(MaxBlockSize)+1 digits — long before shift could
			// overflow.
			run := 0
			shift := uint(0)
			for i < len(syms) && (syms[i] == RunA || syms[i] == RunB) {
				run += int(syms[i]+1) << shift // RunA weighs 1<<k, RunB 2<<k
				if run > MaxBlockSize-len(out) {
					return nil, 0, fmt.Errorf("%w: zero run past %d bytes", errCorrupt, MaxBlockSize)
				}
				shift++
				i++
			}
			front := order[0]
			for k := 0; k < run; k++ {
				out = append(out, front)
			}
		case s >= 2 && s <= 256:
			pos := int(s) - 1
			b := order[pos]
			copy(order[1:pos+1], order[:pos])
			order[0] = b
			out = append(out, b)
			i++
		default:
			return nil, 0, fmt.Errorf("%w: symbol %d", errCorrupt, s)
		}
	}
	return nil, 0, fmt.Errorf("%w: missing EOB", errCorrupt)
}

// MoveToFront applies the plain MTF transform (no run coding); exported for
// testing and for analysis tools.
func MoveToFront(data []byte) []byte {
	var order [256]byte
	for i := range order {
		order[i] = byte(i)
	}
	out := make([]byte, len(data))
	for k, b := range data {
		var pos int
		if order[0] == b {
			pos = 0
		} else {
			j := 1
			for order[j] != b {
				j++
			}
			copy(order[1:j+1], order[:j])
			order[0] = b
			pos = j
		}
		out[k] = byte(pos)
	}
	return out
}

// InverseMoveToFront reverses MoveToFront.
func InverseMoveToFront(data []byte) []byte {
	var order [256]byte
	for i := range order {
		order[i] = byte(i)
	}
	out := make([]byte, len(data))
	for k, p := range data {
		b := order[p]
		copy(order[1:int(p)+1], order[:p])
		order[0] = b
		out[k] = b
	}
	return out
}
