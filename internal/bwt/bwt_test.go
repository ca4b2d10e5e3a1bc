package bwt

import (
	"bytes"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"atc/internal/bytesort"
	"atc/internal/workload"
)

func TestTransformKnown(t *testing.T) {
	// Worked example: "ab" with sentinel.
	// Rotations of "ab$": "$ab"(L=b), "ab$"(L=$), "b$a"(L=a).
	// out = [b a], primary = 1.
	out, p := Transform([]byte("ab"))
	if !bytes.Equal(out, []byte("ba")) || p != 1 {
		t.Fatalf("Transform(ab) = %q, %d; want \"ba\", 1", out, p)
	}
}

func TestTransformBanana(t *testing.T) {
	in := []byte("banana")
	out, p := Transform(in)
	got, err := Inverse(out, p)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, in) {
		t.Fatalf("round trip = %q, want %q", got, in)
	}
	// BWT of banana$ is well known: "annb$aa" -> without sentinel "annbaa", p=4.
	if !bytes.Equal(out, []byte("annbaa")) || p != 4 {
		t.Fatalf("Transform(banana) = %q, %d; want \"annbaa\", 4", out, p)
	}
}

func TestEmpty(t *testing.T) {
	out, p := Transform(nil)
	if out != nil || p != 0 {
		t.Fatalf("Transform(nil) = %v, %d", out, p)
	}
	got, err := Inverse(nil, 0)
	if err != nil || got != nil {
		t.Fatalf("Inverse(nil,0) = %v, %v", got, err)
	}
}

func TestSingleByte(t *testing.T) {
	out, p := Transform([]byte{7})
	got, err := Inverse(out, p)
	if err != nil || !bytes.Equal(got, []byte{7}) {
		t.Fatalf("single byte round trip failed: %v %v", got, err)
	}
}

func TestAllSameByte(t *testing.T) {
	in := bytes.Repeat([]byte{'x'}, 1000)
	out, p := Transform(in)
	got, err := Inverse(out, p)
	if err != nil || !bytes.Equal(got, in) {
		t.Fatalf("run of identical bytes failed to round trip: %v", err)
	}
}

func TestRepetitivePatterns(t *testing.T) {
	cases := [][]byte{
		bytes.Repeat([]byte("ab"), 500),
		bytes.Repeat([]byte("abc"), 333),
		bytes.Repeat([]byte{0, 0, 1}, 400),
		append(bytes.Repeat([]byte{255}, 100), bytes.Repeat([]byte{0}, 100)...),
	}
	for i, in := range cases {
		out, p := Transform(in)
		got, err := Inverse(out, p)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if !bytes.Equal(got, in) {
			t.Fatalf("case %d: round trip mismatch", i)
		}
	}
}

func TestOutputIsPermutation(t *testing.T) {
	in := []byte("the quick brown fox jumps over the lazy dog")
	out, _ := Transform(in)
	a := append([]byte(nil), in...)
	b := append([]byte(nil), out...)
	sort.Slice(a, func(i, j int) bool { return a[i] < a[j] })
	sort.Slice(b, func(i, j int) bool { return b[i] < b[j] })
	if !bytes.Equal(a, b) {
		t.Fatal("BWT output is not a permutation of the input")
	}
}

func TestInverseBadPrimary(t *testing.T) {
	out, _ := Transform([]byte("hello"))
	if _, err := Inverse(out, 0); err == nil {
		t.Fatal("primary=0 accepted for nonempty data")
	}
	if _, err := Inverse(out, len(out)+1); err == nil {
		t.Fatal("primary > n accepted")
	}
}

func TestInverseWrongPrimaryDetected(t *testing.T) {
	// With a wrong (but in-range) primary the walk usually either hits the
	// sentinel early or ends elsewhere; it must not silently return garbage
	// of the wrong length.
	in := []byte("mississippi")
	out, p := Transform(in)
	for q := 1; q <= len(out); q++ {
		got, err := Inverse(out, q)
		if q == p {
			if err != nil || !bytes.Equal(got, in) {
				t.Fatalf("correct primary %d failed: %v", q, err)
			}
			continue
		}
		if err == nil && bytes.Equal(got, in) {
			t.Fatalf("wrong primary %d reproduced the input", q)
		}
	}
}

// naiveSuffixArray sorts the suffixes by direct comparison.
func naiveSuffixArray(data []byte) []int32 {
	sa := make([]int32, len(data))
	for i := range sa {
		sa[i] = int32(i)
	}
	sort.Slice(sa, func(a, b int) bool {
		return bytes.Compare(data[sa[a]:], data[sa[b]:]) < 0
	})
	return sa
}

// forceAllocInput is an SLSL… alternation (nearly every other position
// starts an LMS-substring) whose LMS-substrings are mostly distinct but
// repeat with period 1500, so SA-IS must recurse and its work space is too
// small for the subproblem: recurse_32 allocates a fresh tmp.
func forceAllocInput(n int) []byte {
	data := make([]byte, n)
	lo, hi := byte(1), byte(255)
	for i := 0; i < 1500; i++ {
		if i%2 == 0 {
			data[i] = lo
			continue
		}
		data[i] = hi
		hi--
		if hi <= lo {
			lo++
			hi = 255
		}
	}
	for i := 1500; i < n; i++ {
		data[i] = data[i-1500]
	}
	return data
}

// bytesortedAddrs returns the bytesorted form (eight byte columns, most
// significant first) of n L1-filtered addresses of a Table 1 model: the
// data shape the BWT sees in the lossless back end.
func bytesortedAddrs(tb testing.TB, model string, n int) []byte {
	tb.Helper()
	addrs, err := workload.GenerateFiltered(model, n, 1)
	if err != nil {
		tb.Fatal(err)
	}
	return bytesort.TransformBuffer(addrs, bytesort.Sorted)
}

// losslessModels are the four Table 1 models of the lossless benchmark
// workload: a compiler, a pointer chaser, a streaming kernel and an XML
// transformer.
var losslessModels = []string{"403.gcc", "429.mcf", "462.libquantum", "483.xalancbmk"}

func TestSuffixArrayAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var inputs [][]byte
	for trial := 0; trial < 50; trial++ {
		n := rng.Intn(200) + 1
		data := make([]byte, n)
		alpha := rng.Intn(4) + 2 // small alphabets stress tie-breaking
		for i := range data {
			data[i] = byte(rng.Intn(alpha))
		}
		inputs = append(inputs, data)
	}
	// Periodic and constant inputs repeat their LMS-substrings
	// (maxID < numLMS), which forces SA-IS into its recursion, several
	// levels deep for the longer ones.
	for _, n := range []int{2, 3, 5, 17, 64, 255, 256, 1000, 2000} {
		inputs = append(inputs,
			bytes.Repeat([]byte{'x'}, n),
			bytes.Repeat([]byte("abcab"), n)[:n],
			bytes.Repeat([]byte("ab"), n)[:n],
			bytes.Repeat([]byte("aab"), n)[:n],
			bytes.Repeat([]byte{0, 0, 1}, n)[:n],
			bytes.Repeat([]byte("mississippi"), n)[:n],
		)
	}
	inputs = append(inputs, forceAllocInput(2000))
	for _, model := range losslessModels {
		inputs = append(inputs, bytesortedAddrs(t, model, 64), bytesortedAddrs(t, model, 250))
	}
	for k, data := range inputs {
		got := suffixArray(data)
		want := naiveSuffixArray(data)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("input %d (n=%d): sa[%d] = %d, want %d", k, len(data), i, got[i], want[i])
			}
		}
	}
}

// checkSuffixArray fails unless sa is a permutation of [0,n) listing the
// suffixes of data in strictly increasing order. It compares each adjacent
// pair by first byte and then by the rank of the suffix one position
// further on, which by induction on suffix length is the same as
// data[sa[i-1]:] < data[sa[i]:] but runs in linear time on repetitive
// data.
func checkSuffixArray(t *testing.T, data []byte, sa []int32) {
	t.Helper()
	n := len(data)
	if len(sa) != n {
		t.Fatalf("len(sa) = %d, want %d", len(sa), n)
	}
	rank := make([]int32, n+1) // rank[n] = -1: the empty suffix sorts first
	for i := range rank {
		rank[i] = -2
	}
	rank[n] = -1
	for i, s := range sa {
		if s < 0 || int(s) >= n || rank[s] != -2 {
			t.Fatalf("sa is not a permutation of [0,%d): sa[%d] = %d", n, i, s)
		}
		rank[s] = int32(i)
	}
	for i := 1; i < n; i++ {
		a, b := sa[i-1], sa[i]
		if data[a] > data[b] || data[a] == data[b] && rank[a+1] > rank[b+1] {
			t.Fatalf("suffix %d sorts before suffix %d but is larger", a, b)
		}
	}
}

// TestSuffixArrayBytesortedBlocks checks SA-IS on 64 KiB slices of the
// blocks the lossless back end sorts: high-order columns that are long
// runs, mid columns of page numbers, low columns of line offsets.
func TestSuffixArrayBytesortedBlocks(t *testing.T) {
	const slice = 64 << 10
	for _, model := range losslessModels {
		data := bytesortedAddrs(t, model, 32<<10) // 256 KiB, all eight columns
		for off := 0; off+slice <= len(data); off += slice {
			block := data[off : off+slice]
			checkSuffixArray(t, block, suffixArray(block))
		}
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(data []byte) bool {
		out, p := Transform(data)
		got, err := Inverse(out, p)
		if err != nil {
			return false
		}
		if len(data) == 0 {
			return len(got) == 0
		}
		return bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestLargeRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	in := make([]byte, 1<<18)
	for i := range in {
		in[i] = byte(rng.Intn(256))
	}
	out, p := Transform(in)
	got, err := Inverse(out, p)
	if err != nil || !bytes.Equal(got, in) {
		t.Fatal("large random block failed to round trip")
	}
}

func TestLargeRepetitive(t *testing.T) {
	// Worst case for comparison sorts; SA-IS stays linear on it.
	in := bytes.Repeat([]byte("aaaaaaab"), 1<<15)
	out, p := Transform(in)
	got, err := Inverse(out, p)
	if err != nil || !bytes.Equal(got, in) {
		t.Fatal("large repetitive block failed to round trip")
	}
}

func BenchmarkTransform1MB(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	in := make([]byte, 1<<20)
	for i := range in {
		in[i] = byte(rng.Intn(64))
	}
	b.SetBytes(int64(len(in)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Transform(in)
	}
}

// BenchmarkTransformAddrBlock transforms one full-size bsc block (900 KB,
// bsc.DefaultBlockSize) of each lossless model: the first block of a
// bytesorted 128 Ki-address segment, as in the lossless benchmark
// workload. Random input (BenchmarkTransform1MB) hides most of the
// difference between suffix sorts; this is the data the encoder sorts.
func BenchmarkTransformAddrBlock(b *testing.B) {
	const blockSize = 900 * 1000 // bsc.DefaultBlockSize; bsc imports bwt
	for _, model := range losslessModels {
		block := bytesortedAddrs(b, model, 128<<10)[:blockSize]
		b.Run(model, func(b *testing.B) {
			b.SetBytes(blockSize)
			b.ReportAllocs()
			for b.Loop() {
				Transform(block)
			}
		})
	}
}

func BenchmarkInverse1MB(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	in := make([]byte, 1<<20)
	for i := range in {
		in[i] = byte(rng.Intn(64))
	}
	out, p := Transform(in)
	b.SetBytes(int64(len(in)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Inverse(out, p); err != nil {
			b.Fatal(err)
		}
	}
}
