package main

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"path/filepath"
	"slices"
	"strconv"

	"atc"
	"atc/internal/bitio"
	"atc/internal/bsc"
	"atc/internal/bwt"
	"atc/internal/bytesort"
	"atc/internal/core"
	"atc/internal/histogram"
	"atc/internal/huffman"
	"atc/internal/mtf"
	"atc/internal/phase"
	"atc/internal/store"
)

// The replay repeats, one layer call at a time and on one goroutine, the
// work the pipeline did for an archive, with a span around each call into
// a layer's exported functions. Its outputs are checked against the
// pipeline's (the same chunk decisions, the same stored blobs, the same
// decoded trace), so the per-layer times describe the work the program
// actually did.

// bscLenBits is the bit width of one Huffman code length in a bsc block
// header. The replay reproduces bsc's framing to time its stages apart;
// the blob comparison fails if the two ever disagree.
const bscLenBits = 5

// counts are the replay's per-layer work counters, summed over archives.
type counts struct {
	bwtBlocks, bwtBytes   int64
	mtfSymbols            int64
	huffmanBits           int64
	bytesortBytes         int64
	bscIn, bscOut         int64
	intervals, translated int64
	written, read         int64
	table                 phase.Stats
}

// replayRecord is one interval or segment: a chunk, or an imitation of a
// chunk through byte translations.
type replayRecord struct {
	chunk     int
	imitation bool
	trans     *histogram.Translations
	n         int // addresses
}

// replayArchive replays the encode and decode of a and checks both
// against the pipeline: decoded is what the pipeline's decode returned.
// Every check, and every failure to replay, is counted in t.
func replayArchive(tr *tracer, dir string, a *built, decoded []uint64, t *tally, c *counts) {
	recs, streams, blobs, err := replayEncode(tr, a, c)
	t.record("replay encode "+a.spec.name, err)
	if err != nil {
		return
	}
	t.record("replay decisions "+a.spec.name, checkDecisions(a, recs))
	stored, err := replayStoreRead(tr, a.path, len(blobs), c)
	t.record("replay store read "+a.spec.name, err)
	if err != nil {
		return
	}
	for id, b := range blobs {
		name := chunkName(id)
		t.record("replay blob "+a.spec.name+"/"+name, sameBytes(b, stored[name]))
		cs, err := bsc.CompressSize(streams[id], bsc.DefaultBlockSize)
		if err == nil {
			err = sameBytes(cs, stored[name])
		}
		t.record("bsc.CompressSize "+a.spec.name+"/"+name, err)
	}
	err = replayStoreWrite(tr, filepath.Join(dir, "replay-"+a.spec.name+".atc"), blobs, stored, c)
	t.record("replay store write "+a.spec.name, err)
	got, err := replayDecode(tr, recs, stored, c)
	if err == nil && !slices.Equal(got, decoded) {
		err = fmt.Errorf("replayed decode differs from the pipeline's")
	}
	t.record("replay decode "+a.spec.name, err)
}

func chunkName(id int) string { return strconv.Itoa(id) + ".bsc" }

func sameBytes(got, want []byte) error {
	if !bytes.Equal(got, want) {
		return fmt.Errorf("replayed %d bytes differ from the stored %d", len(got), len(want))
	}
	return nil
}

// replayEncode cuts a's input as the pipeline does, classifies lossy
// intervals, and compresses every chunk. It returns the records, each
// chunk's bytesort stream and its bsc blob.
func replayEncode(tr *tracer, a *built, c *counts) ([]replayRecord, map[int][]byte, map[int][]byte, error) {
	root := tr.begin("replay.encode", 0)
	defer tr.end(root)
	cut := a.spec.segment
	var table *phase.Table
	if a.spec.lossy {
		cut = a.spec.interval
		table = phase.New(phase.DefaultCapacity, phase.DefaultEpsilon)
	}
	var recs []replayRecord
	streams, blobs := map[int][]byte{}, map[int][]byte{}
	next := 1
	for off := 0; off < len(a.input); off += cut {
		iv := a.input[off:min(off+cut, len(a.input))]
		rec := replayRecord{n: len(iv)}
		if table != nil {
			h := new(histogram.Set)
			id := tr.begin("histogram.compute", root)
			histogram.ComputeInto(h, iv)
			tr.end(id)
			c.intervals++
			id = tr.begin("phase.match", root)
			full := len(iv) == cut
			if full {
				if m, _, ok := table.Match(h); ok {
					src, ok := table.Lookup(m)
					if !ok {
						tr.end(id)
						return nil, nil, nil, fmt.Errorf("matched chunk %d not resident", m)
					}
					rec = replayRecord{chunk: m, imitation: true, trans: histogram.BuildTranslations(src, h, phase.DefaultEpsilon), n: len(iv)}
				}
			}
			if !rec.imitation {
				rec.chunk = next
				if full {
					table.Insert(next, h)
				}
			}
			tr.end(id)
		} else {
			rec.chunk = next
		}
		recs = append(recs, rec)
		if rec.imitation {
			continue
		}
		next++
		id := tr.begin("bytesort.encode", root)
		var sb bytes.Buffer
		enc := bytesort.NewEncoder(&sb, min(core.DefaultBufferAddrs, len(iv)))
		err := enc.WriteSlice(iv)
		if err == nil {
			err = enc.Close()
		}
		tr.end(id)
		if err != nil {
			return nil, nil, nil, err
		}
		c.bytesortBytes += int64(sb.Len())
		blob, err := stagedCompress(tr, root, sb.Bytes(), c)
		if err != nil {
			return nil, nil, nil, err
		}
		streams[rec.chunk], blobs[rec.chunk] = sb.Bytes(), blob
	}
	if table != nil {
		st := table.Stats()
		c.table.Lookups += st.Lookups
		c.table.Matches += st.Matches
		c.table.Compared += st.Compared
		c.table.Pruned += st.Pruned
	}
	return recs, streams, blobs, nil
}

// stagedCompress is bsc compression with each stage called on its own:
// bwt.Transform, mtf.Encode and the Huffman coding of the symbols. The
// span around it is bsc.compress; its self time is bsc's framing.
func stagedCompress(tr *tracer, parent int, data []byte, c *counts) ([]byte, error) {
	id := tr.begin("bsc.compress", parent)
	defer tr.end(id)
	out := []byte("BSC1")
	for off := 0; off < len(data); off += bsc.DefaultBlockSize {
		block := data[off:min(off+bsc.DefaultBlockSize, len(data))]
		s := tr.begin("bwt.transform", id)
		transformed, primary := bwt.Transform(block)
		tr.end(s)
		s = tr.begin("mtf.encode", id)
		syms := mtf.Encode(transformed)
		tr.end(s)
		s = tr.begin("huffman.encode", id)
		body, bits, err := huffmanEncode(syms)
		tr.end(s)
		if err != nil {
			return nil, err
		}
		var hdr [13]byte
		hdr[0] = 1
		binary.LittleEndian.PutUint32(hdr[1:5], uint32(len(block)))
		binary.LittleEndian.PutUint32(hdr[5:9], crc32.ChecksumIEEE(block))
		binary.LittleEndian.PutUint32(hdr[9:13], uint32(primary))
		out = append(append(out, hdr[:]...), body...)
		c.bwtBlocks++
		c.bwtBytes += int64(len(block))
		c.mtfSymbols += int64(len(syms))
		c.huffmanBits += bits
	}
	out = append(out, 0)
	c.bscIn += int64(len(data))
	c.bscOut += int64(len(out))
	return out, nil
}

// huffmanEncode builds the block's canonical code and writes the code
// lengths and the symbols; bits counts the symbol bits.
func huffmanEncode(syms []uint16) (body []byte, bits int64, err error) {
	freqs := make([]int64, mtf.NumSyms)
	for _, s := range syms {
		freqs[s]++
	}
	lengths, err := huffman.BuildLengths(freqs, huffman.MaxBits)
	if err != nil {
		return nil, 0, err
	}
	cb, err := huffman.NewCodebook(lengths)
	if err != nil {
		return nil, 0, err
	}
	var buf bytes.Buffer
	bw := bitio.NewWriter(&buf)
	for _, l := range lengths {
		if err := bw.WriteBits(uint64(l), bscLenBits); err != nil {
			return nil, 0, err
		}
	}
	enc := huffman.NewEncoder(cb, bw)
	for _, s := range syms {
		if err := enc.WriteSymbol(int(s)); err != nil {
			return nil, 0, err
		}
		bits += int64(lengths[s])
	}
	if err := bw.Close(); err != nil {
		return nil, 0, err
	}
	return buf.Bytes(), bits, nil
}

// checkDecisions compares the replay's chunk and imitation decisions with
// the writer's stats and, record by record, with the archive's index.
func checkDecisions(a *built, recs []replayRecord) error {
	var chunks, imits int64
	for _, r := range recs {
		if r.imitation {
			imits++
		} else {
			chunks++
		}
	}
	if chunks != a.stats.Chunks || imits != a.stats.Imitations {
		return fmt.Errorf("replay has %d chunks and %d imitations, Writer.Stats %d and %d", chunks, imits, a.stats.Chunks, a.stats.Imitations)
	}
	r, err := atc.OpenArchive(a.path)
	if err != nil {
		return err
	}
	defer r.Close()
	idx := r.ChunkIndex()
	if len(idx) != len(recs) {
		return fmt.Errorf("replay has %d records, the archive %d", len(recs), len(idx))
	}
	var pos int64
	for i, sp := range idx {
		rec := recs[i]
		if sp.ChunkID != rec.chunk || sp.Imitation != rec.imitation || sp.Start != pos || sp.End != pos+int64(rec.n) {
			return fmt.Errorf("record %d: replay chunk %d imitation %v, archive %+v", i, rec.chunk, rec.imitation, sp)
		}
		pos = sp.End
	}
	return nil
}

// replayStoreRead opens the pipeline's archive and reads its MANIFEST,
// INFO and chunk blobs, as a decode does.
func replayStoreRead(tr *tracer, path string, chunks int, c *counts) (map[string][]byte, error) {
	root := tr.begin("store.read", 0)
	defer tr.end(root)
	st, err := store.OpenArchive(path)
	if err != nil {
		return nil, err
	}
	defer st.Close()
	out := map[string][]byte{}
	names := []string{"MANIFEST", "INFO.bsc"}
	for i := 1; i <= chunks; i++ {
		names = append(names, chunkName(i))
	}
	for _, name := range names {
		b, err := store.ReadBlob(st, name)
		if err != nil {
			return nil, err
		}
		out[name] = b
		c.read += int64(len(b))
	}
	return out, nil
}

// replayStoreWrite writes the replayed chunk blobs, plus the pipeline's
// INFO and MANIFEST, into a fresh archive.
func replayStoreWrite(tr *tracer, path string, blobs map[int][]byte, stored map[string][]byte, c *counts) error {
	root := tr.begin("store.write", 0)
	defer tr.end(root)
	st, err := store.CreateArchive(path)
	if err != nil {
		return err
	}
	ids := make([]int, 0, len(blobs))
	for id := range blobs {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	for _, id := range ids {
		if err := store.WriteBlob(st, chunkName(id), blobs[id]); err != nil {
			st.Close()
			return err
		}
		c.written += int64(len(blobs[id]))
	}
	for _, name := range []string{"INFO.bsc", "MANIFEST"} {
		if err := store.WriteBlob(st, name, stored[name]); err != nil {
			st.Close()
			return err
		}
		c.written += int64(len(stored[name]))
	}
	return st.Close()
}

// replayDecode decompresses every stored chunk stage by stage, inverts
// bytesort, and rebuilds the trace record by record, translating
// imitations.
func replayDecode(tr *tracer, recs []replayRecord, stored map[string][]byte, c *counts) ([]uint64, error) {
	root := tr.begin("replay.decode", 0)
	defer tr.end(root)
	chunks := map[int][]uint64{}
	var out []uint64
	for _, r := range recs {
		if !r.imitation {
			stream, err := stagedDecompress(tr, root, stored[chunkName(r.chunk)])
			if err != nil {
				return nil, err
			}
			id := tr.begin("bytesort.decode", root)
			addrs, err := bytesort.NewDecoder(bytes.NewReader(stream)).ReadAll()
			tr.end(id)
			if err != nil {
				return nil, err
			}
			chunks[r.chunk] = addrs
			out = append(out, addrs...)
			continue
		}
		src, ok := chunks[r.chunk]
		if !ok {
			return nil, fmt.Errorf("imitation of chunk %d before it", r.chunk)
		}
		id := tr.begin("histogram.translate", root)
		n := len(out)
		out = append(out, src...)
		r.trans.ApplySlice(out[n:])
		tr.end(id)
		c.translated += int64(len(src))
	}
	return out, nil
}

// stagedDecompress is bsc decompression with each stage called on its
// own: the Huffman symbol decode, mtf.DecodeInto and bwt.InverseInto.
func stagedDecompress(tr *tracer, parent int, blob []byte) ([]byte, error) {
	id := tr.begin("bsc.decompress", parent)
	defer tr.end(id)
	br := bufio.NewReader(bytes.NewReader(blob))
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil || string(magic[:]) != "BSC1" {
		return nil, fmt.Errorf("bsc: bad magic")
	}
	var out []byte
	var bit bitio.Reader
	var dec huffman.Decoder
	lengths := make([]uint8, mtf.NumSyms)
	for {
		marker, err := br.ReadByte()
		if err != nil {
			return nil, fmt.Errorf("bsc: missing block marker")
		}
		if marker == 0 {
			return out, nil
		}
		var hdr [12]byte
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			return nil, fmt.Errorf("bsc: short block header")
		}
		origLen := binary.LittleEndian.Uint32(hdr[0:4])
		crc := binary.LittleEndian.Uint32(hdr[4:8])
		primary := int(binary.LittleEndian.Uint32(hdr[8:12]))

		s := tr.begin("huffman.decode", id)
		bit.Reset(br)
		for i := range lengths {
			v, err := bit.ReadBits(bscLenBits)
			if err != nil {
				tr.end(s)
				return nil, err
			}
			lengths[i] = uint8(v)
		}
		if err := dec.Reset(lengths, &bit); err != nil {
			tr.end(s)
			return nil, err
		}
		syms := make([]uint16, 0, origLen+1)
		for {
			sym, err := dec.ReadSymbol()
			if err != nil {
				tr.end(s)
				return nil, err
			}
			syms = append(syms, uint16(sym))
			if sym == mtf.EOB {
				break
			}
		}
		tr.end(s)

		s = tr.begin("mtf.decode", id)
		transformed, _, err := mtf.DecodeInto(nil, syms)
		tr.end(s)
		if err != nil {
			return nil, err
		}
		s = tr.begin("bwt.inverse", id)
		block, _, err := bwt.InverseInto(nil, nil, transformed, primary)
		tr.end(s)
		if err != nil {
			return nil, err
		}
		if uint32(len(block)) != origLen || crc32.ChecksumIEEE(block) != crc {
			return nil, fmt.Errorf("bsc: block length or checksum mismatch")
		}
		out = append(out, block...)
	}
}
