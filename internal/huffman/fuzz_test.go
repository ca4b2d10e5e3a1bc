package huffman

import (
	"testing"

	"atc/internal/bitio"
	"atc/internal/mtf"
)

// FuzzHuffmanDecoder checks the table-driven ReadSymbol against the
// bit-serial reference on arbitrary input laid out as a bsc block body:
// 258 five-bit code lengths, then the coded bit stream. Both must return
// the same symbols, fail at the same symbol with the same error, and have
// pulled the same number of bytes from the source after every symbol.
//
// CI runs this for a short smoke window
// (go test -fuzz=FuzzHuffmanDecoder -fuzztime=10s ./internal/huffman).
func FuzzHuffmanDecoder(f *testing.F) {
	// Real length tables, each with the first symbols of its block.
	for _, model := range losslessModels {
		syms := addrBlockSyms(f, model, 16<<10)
		f.Add(encodeBlock(f, blockLengths(f, syms), syms[:min(len(syms), 2000)]))
	}
	// The single-symbol under-full table, then a code it lacks.
	single := make([]uint8, mtf.NumSyms)
	single[mtf.EOB] = 1
	f.Add(append(encodeBlock(f, single, []uint16{mtf.EOB, mtf.EOB, mtf.EOB}), 0xff))
	// A complete table MaxBits deep: lengths 1, 2, …, MaxBits, MaxBits.
	deep := make([]uint8, mtf.NumSyms)
	var deepSyms []uint16
	for sym := 0; sym <= MaxBits; sym++ {
		deep[sym] = uint8(min(sym+1, MaxBits))
		deepSyms = append(deepSyms, uint16(sym))
	}
	f.Add(encodeBlock(f, deep, deepSyms))
	// Only 11–20-bit codes: every symbol takes the long-code fallback.
	long := make([]uint8, mtf.NumSyms)
	var longSyms []uint16
	for sym := range long {
		long[sym] = uint8(11 + sym%10)
		longSyms = append(longSyms, uint16(sym))
	}
	f.Add(encodeBlock(f, long, longSyms))

	f.Fuzz(func(t *testing.T, stream []byte) {
		tabSrc, refSrc := &byteCounter{b: stream}, &byteCounter{b: stream}
		tabBits, refBits := bitio.NewReader(tabSrc), bitio.NewReader(refSrc)
		lengths := make([]uint8, mtf.NumSyms)
		if err := readLengths(tabBits, lengths); err != nil {
			return
		}
		if err := readLengths(refBits, lengths); err != nil {
			t.Fatal(err)
		}
		var tab, ref Decoder
		if err := tab.Reset(lengths, tabBits); err != nil {
			return
		}
		if err := ref.Reset(lengths, refBits); err != nil {
			t.Fatal(err)
		}
		for i := 0; ; i++ {
			got, gotErr := tab.ReadSymbol()
			want, wantErr := referenceReadSymbol(&ref)
			if got != want || gotErr != wantErr {
				t.Fatalf("symbol %d: table decode = %d, %v; reference = %d, %v", i, got, gotErr, want, wantErr)
			}
			if tabSrc.n != refSrc.n {
				t.Fatalf("symbol %d: table decode pulled %d bytes, reference %d", i, tabSrc.n, refSrc.n)
			}
			if gotErr != nil {
				return
			}
			if tabBits.BitsRead() != refBits.BitsRead() {
				t.Fatalf("symbol %d: table decode read %d bits, reference %d", i, tabBits.BitsRead(), refBits.BitsRead())
			}
		}
	})
}
