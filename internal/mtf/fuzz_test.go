package mtf

import (
	"bytes"
	"slices"
	"testing"
)

// FuzzMTFEncode checks the run-skipping Encode against the linear-scan
// referenceEncode on arbitrary bytes: both must emit the same symbols,
// and DecodeInto must give the input back.
//
// CI runs this for a short smoke window
// (go test -fuzz=FuzzMTFEncode -fuzztime=10s -fuzzminimizetime=1s
// ./internal/mtf; minimizing inputs grown from the 1 MiB seed would
// otherwise take the whole window).
func FuzzMTFEncode(f *testing.F) {
	for _, model := range losslessModels {
		f.Add(bwtBlock(f, model, 512)) // the whole block of a 512-address segment
	}
	f.Add(make([]byte, 1<<20))                             // one zero run of 2^20 bytes
	f.Add(append([]byte("abcdefgh"), make([]byte, 21)...)) // a run ending the block
	desc := make([]byte, 256)
	for i := range desc {
		desc[i] = byte(255 - i)
	}
	f.Add(desc)

	f.Fuzz(func(t *testing.T, data []byte) {
		checkEncode(t, data)
	})
}

// TestEncodeMatchesReferenceOnBlocks runs the fuzz check on one
// full-size real block per lossless model.
func TestEncodeMatchesReferenceOnBlocks(t *testing.T) {
	for _, model := range losslessModels {
		checkEncode(t, addrBlock(t, model))
	}
}

// checkEncode fails t unless Encode(data) equals referenceEncode(data)
// and decodes back to data.
func checkEncode(t *testing.T, data []byte) {
	t.Helper()
	syms := Encode(data)
	if want := referenceEncode(data); !slices.Equal(syms, want) {
		t.Fatalf("Encode differs from the reference: %d symbols, want %d", len(syms), len(want))
	}
	out, n, err := DecodeInto(nil, syms)
	if err != nil || n != len(syms) || !bytes.Equal(out, data) {
		t.Fatalf("round trip: %d of %d bytes, %d of %d symbols, %v", len(out), len(data), n, len(syms), err)
	}
}
