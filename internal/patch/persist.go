package patch

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"math/bits"
	"os"
	"path/filepath"
)

// This file implements the first alternative to the purely in-memory design
// discussed in Section V of the paper: "the index data could be materialized
// to disk, which has the advantages of durability, easy recovery and
// reducing the main memory consumption". Materialized indexes restore in
// O(|P_c|) instead of re-running discovery over the data; the engine's
// checkpoint writes one file per index into each generation and falls back
// to discovery when no (valid) file exists.
//
// File format (little endian), CRC32-IEEE over everything before the
// trailing checksum:
//
//	magic      uint32 "PIX1"
//	table      string (u32 length + bytes)
//	column     string
//	constraint u8
//	kind       u8   (requested representation)
//	threshold  f64
//	descending u8
//	partitions u32
//	per partition:
//	  numRows  u64
//	  setKind  u8   (0 identifier, 1 bitmap)
//	  payload:
//	    identifier: count u64, ids []u64
//	    bitmap:     words u64, words []u64, cardinality u64
//	crc32      uint32

const persistMagic uint32 = 0x50495831 // "PIX1"

// maxFileRows bounds a partition's row count when the caller cannot say how
// many rows to expect: large enough for any real partition, small enough
// that no size derived from it overflows an int.
const maxFileRows = 1 << 40

// ErrBadIndexFile reports a corrupt or mismatching materialized index file.
var ErrBadIndexFile = errors.New("patch: bad index file")

// Save materializes the index to the given file path: a temporary file is
// written and fsynced, renamed over path, and the directory is fsynced, so
// path holds either the old or the new file after a crash. The index must be
// fully built.
func (ix *Index) Save(path string) error {
	if !ix.Ready() {
		return fmt.Errorf("patch: cannot save unbuilt index %s.%s", ix.table, ix.column)
	}
	data := ix.encode()
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("patch: save: %w", err)
	}
	defer os.Remove(tmp)
	if _, err := f.Write(data); err != nil {
		f.Close()
		return fmt.Errorf("patch: save: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("patch: save: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("patch: save: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("patch: save: %w", err)
	}
	if dir, err := os.Open(filepath.Dir(path)); err == nil {
		dir.Sync()
		dir.Close()
	}
	return nil
}

// encode serializes the index in the PIX1 format.
func (ix *Index) encode() []byte {
	le := binary.LittleEndian
	appendStr := func(buf []byte, s string) []byte {
		return append(le.AppendUint32(buf, uint32(len(s))), s...)
	}
	boolByte := func(b bool) byte {
		if b {
			return 1
		}
		return 0
	}
	ix.mu.RLock()
	sets := append([]Set{}, ix.sets...)
	ix.mu.RUnlock()
	size := 64 + len(ix.table) + len(ix.column)
	for _, s := range sets {
		size += 32 + s.MemoryBytes()
	}
	buf := make([]byte, 0, size)
	buf = le.AppendUint32(buf, persistMagic)
	buf = appendStr(buf, ix.table)
	buf = appendStr(buf, ix.column)
	buf = append(buf, byte(ix.constraint), byte(ix.kind))
	buf = le.AppendUint64(buf, math.Float64bits(ix.threshold))
	buf = append(buf, boolByte(ix.descending))
	buf = le.AppendUint32(buf, uint32(len(sets)))
	for _, s := range sets {
		buf = le.AppendUint64(buf, uint64(s.NumRows()))
		switch set := s.(type) {
		case *IdentifierSet:
			buf = append(buf, 0)
			buf = le.AppendUint64(buf, uint64(len(set.ids)))
			for _, id := range set.ids {
				buf = le.AppendUint64(buf, id)
			}
		case *BitmapSet:
			buf = append(buf, 1)
			buf = le.AppendUint64(buf, uint64(len(set.words)))
			for _, w := range set.words {
				buf = le.AppendUint64(buf, w)
			}
			buf = le.AppendUint64(buf, uint64(set.card))
		}
	}
	return le.AppendUint32(buf, crc32.ChecksumIEEE(buf))
}

// Load reads a materialized index from path. rows, when non-nil, is the
// expected row count of every partition: a file whose partition count or
// per-partition row counts differ is rejected with ErrBadIndexFile, so a
// stale file never attaches to a table it does not describe.
func Load(path string, rows []int) (*Index, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return decode(data, rows)
}

// decoder walks a PIX1 image. Every length read from the file is checked
// against the bytes that remain before anything is allocated for it.
type decoder struct {
	buf []byte
	err error
}

func (d *decoder) take(n uint64) []byte {
	if d.err != nil {
		return nil
	}
	if n > uint64(len(d.buf)) {
		d.err = fmt.Errorf("%w: truncated", ErrBadIndexFile)
		return nil
	}
	b := d.buf[:n]
	d.buf = d.buf[n:]
	return b
}

func (d *decoder) u8() byte {
	if b := d.take(1); b != nil {
		return b[0]
	}
	return 0
}

func (d *decoder) u32() uint32 {
	if b := d.take(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

func (d *decoder) u64() uint64 {
	if b := d.take(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

// words reads n u64 words after checking n against the remaining bytes.
func (d *decoder) words(n uint64) []uint64 {
	if d.err == nil && n > uint64(len(d.buf))/8 {
		d.err = fmt.Errorf("%w: truncated", ErrBadIndexFile)
	}
	b := d.take(8 * n)
	if d.err != nil {
		return nil
	}
	out := make([]uint64, n)
	for i := range out {
		out[i] = binary.LittleEndian.Uint64(b[8*i:])
	}
	return out
}

func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: "+format, append([]any{ErrBadIndexFile}, args...)...)
	}
}

// decode parses and validates a PIX1 image (see Load for rows).
func decode(data []byte, rows []int) (*Index, error) {
	if len(data) < 8 {
		return nil, fmt.Errorf("%w: truncated", ErrBadIndexFile)
	}
	body := data[:len(data)-4]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(data[len(data)-4:]) {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrBadIndexFile)
	}
	d := &decoder{buf: body}
	if d.u32() != persistMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrBadIndexFile)
	}
	table := string(d.take(uint64(d.u32())))
	column := string(d.take(uint64(d.u32())))
	cb, kb := d.u8(), d.u8()
	threshold := math.Float64frombits(d.u64())
	db := d.u8()
	nParts := uint64(d.u32())
	// Each partition takes at least 17 bytes (numRows, kind, one count).
	if d.err == nil && (nParts == 0 || nParts > uint64(len(d.buf))/17) {
		d.fail("bad partition count %d", nParts)
	}
	if d.err == nil && rows != nil && nParts != uint64(len(rows)) {
		d.fail("%d partitions, want %d", nParts, len(rows))
	}
	if d.err != nil {
		return nil, d.err
	}
	ix, err := NewIndex(table, column, Constraint(cb), Kind(kb), threshold, int(nParts))
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadIndexFile, err)
	}
	ix.SetDescending(db == 1)
	for p := 0; p < int(nParts) && d.err == nil; p++ {
		numRows := d.u64()
		switch {
		case rows != nil && numRows != uint64(rows[p]):
			d.fail("partition %d has %d rows, want %d", p, numRows, rows[p])
		case numRows > maxFileRows:
			d.fail("partition %d: row count %d out of range", p, numRows)
		}
		setKind := d.u8()
		if d.err != nil {
			break
		}
		switch setKind {
		case 0:
			count := d.u64()
			if count > numRows {
				d.fail("partition %d: %d ids for %d rows", p, count, numRows)
			}
			ids := d.words(count)
			if d.err != nil {
				break
			}
			set, err := NewIdentifierSet(ids, int(numRows))
			if err != nil {
				d.fail("%v", err)
				break
			}
			ix.sets[p] = set
		case 1:
			nWords := d.u64()
			if nWords != (numRows+63)/64 {
				d.fail("partition %d: %d bitmap words for %d rows", p, nWords, numRows)
			}
			words := d.words(nWords)
			card := d.u64()
			if d.err != nil {
				break
			}
			if err := checkBitmap(words, numRows, card); err != nil {
				d.fail("partition %d: %v", p, err)
				break
			}
			ix.sets[p] = &BitmapSet{words: words, numRows: int(numRows), card: int(card)}
		default:
			d.fail("unknown set kind %d", setKind)
		}
	}
	if d.err == nil && len(d.buf) != 0 {
		d.fail("%d trailing bytes", len(d.buf))
	}
	if d.err != nil {
		return nil, d.err
	}
	return ix, nil
}

// checkBitmap verifies a loaded bitmap: no bit at or past numRows, and the
// stored cardinality equals the population count.
func checkBitmap(words []uint64, numRows, card uint64) error {
	n := uint64(0)
	for _, w := range words {
		n += uint64(bits.OnesCount64(w))
	}
	if tail := numRows % 64; tail != 0 && len(words) > 0 && words[len(words)-1]>>tail != 0 {
		return fmt.Errorf("bits set past row %d", numRows)
	}
	if n != card {
		return fmt.Errorf("cardinality %d, bitmap holds %d", card, n)
	}
	return nil
}
