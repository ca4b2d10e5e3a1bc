// Package bwt implements the Burrows–Wheeler transform and its inverse.
//
// The transform uses the virtual-sentinel convention: conceptually a unique
// smallest symbol is appended to the input, rotations of the extended string
// are sorted, and the last column is emitted. The sentinel itself is not
// written to the output; its row index (the "primary index") is returned
// alongside the n transformed bytes. This matches the suffix order produced
// by a plain suffix array, so the forward transform reduces to suffix
// sorting. The suffix array is built by SA-IS (induced sorting, Nong, Zhang
// and Chen 2009) in linear time, with no pathological behaviour on the
// repetitive inputs BWT blocks frequently are. sais.go is a port of the
// int32-text SA-IS in the Go standard library's index/suffixarray, under
// the BSD license reproduced in that file; the block's bytes are widened
// to an int32 text before sorting.
package bwt

import (
	"errors"
	"fmt"
)

// ErrBadPrimary is returned by Inverse when the primary index is out of range.
var ErrBadPrimary = errors.New("bwt: primary index out of range")

// ErrCorrupt reports transform data whose inverse cycle is inconsistent
// with the claimed primary index: the input was damaged in transit or the
// primary belongs to a different block.
var ErrCorrupt = errors.New("bwt: corrupt transform data")

// Transform computes the BWT of data. It returns the n output bytes and the
// primary index p in [1, n] (row of the virtual sentinel in the sorted
// rotation matrix). Transforming an empty slice returns (nil, 0).
// The output slice is freshly allocated; data is not modified.
func Transform(data []byte) (out []byte, primary int) {
	n := len(data)
	if n == 0 {
		return nil, 0
	}
	sa := suffixArray(data)
	out = make([]byte, n)
	// Row 0 is the rotation that starts with the sentinel; its last column
	// entry is the final byte of the input.
	out[0] = data[n-1]
	w := 1
	for k, s := range sa {
		if s == 0 {
			// This row's last column is the sentinel: record its position.
			primary = k + 1
			continue
		}
		out[w] = data[s-1]
		w++
	}
	return out, primary
}

// Inverse reconstructs the original data from a BWT output and primary index.
func Inverse(out []byte, primary int) ([]byte, error) {
	s, _, err := InverseInto(nil, nil, out, primary)
	return s, err
}

// InverseInto is Inverse with caller-owned working storage: dst receives
// the reconstructed bytes and next is the (n+1)-entry successor table the
// cycle walk needs — both are grown only when too small, so a caller
// recycling them (the bsc Reader's pooled decode state) inverts block
// after block without allocating. It returns the reconstructed slice
// (aliasing dst's storage unless grown) and the possibly-grown scratch,
// which the caller should retain even on error.
func InverseInto(dst []byte, next []int32, out []byte, primary int) ([]byte, []int32, error) {
	n := len(out)
	if n == 0 {
		if primary != 0 {
			return nil, next, ErrBadPrimary
		}
		return nil, next, nil
	}
	if primary < 1 || primary > n {
		return nil, next, fmt.Errorf("%w: %d not in [1,%d]", ErrBadPrimary, primary, n)
	}
	// realByte maps an index in the (n+1)-row column (sentinel at `primary`)
	// to the stored byte.
	realByte := func(i int) byte {
		if i < primary {
			return out[i]
		}
		return out[i-1]
	}
	var cnt [256]int
	for _, b := range out {
		cnt[b]++
	}
	// start[c]: first row in the F column holding byte c (row 0 is the
	// sentinel, hence the +1 initialisation).
	var start [256]int
	sum := 1
	for c := 0; c < 256; c++ {
		start[c] = sum
		sum += cnt[c]
	}
	if cap(next) < n+1 {
		next = make([]int32, n+1)
	}
	next = next[:n+1]
	var occ [256]int
	for i := 0; i <= n; i++ {
		if i == primary {
			continue
		}
		c := realByte(i)
		next[i] = int32(start[c] + occ[c])
		occ[c]++
	}
	if cap(dst) < n {
		dst = make([]byte, n)
	}
	s := dst[:n]
	i := 0
	for k := n - 1; k >= 0; k-- {
		if i == primary {
			return nil, next, fmt.Errorf("%w: cycle hit sentinel early (wrong primary?)", ErrCorrupt)
		}
		s[k] = realByte(i)
		i = int(next[i])
	}
	if i != primary {
		return nil, next, fmt.Errorf("%w: cycle did not terminate at sentinel (wrong primary?)", ErrCorrupt)
	}
	return s, next, nil
}

// suffixArray computes the suffix array of data with SA-IS (sais.go) in
// linear time. The bytes are widened to an int32 text over a 256-symbol
// alphabet, and the 512-entry scratch is room for both the frequency and
// the bucket table, which sais_32 then need not recount.
func suffixArray(data []byte) []int32 {
	text := make([]int32, len(data))
	for i, b := range data {
		text[i] = int32(b)
	}
	sa := make([]int32, len(data))
	sais_32(text, 256, sa, make([]int32, 2*256))
	return sa
}
