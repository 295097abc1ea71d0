package patch

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	for _, kind := range []Kind{Identifier, Bitmap} {
		ix, err := NewIndex("tab", "col", NearlySorted, kind, 0.25, 3)
		if err != nil {
			t.Fatal(err)
		}
		ix.SetDescending(true)
		rng := rand.New(rand.NewSource(int64(kind)))
		for p := 0; p < 3; p++ {
			n := 100 + rng.Intn(500)
			var ids []uint64
			for i := 0; i < n; i++ {
				if rng.Intn(7) == 0 {
					ids = append(ids, uint64(i))
				}
			}
			if err := ix.SetPartition(p, ids, n); err != nil {
				t.Fatal(err)
			}
		}
		path := filepath.Join(dir, kind.String()+".pidx")
		if err := ix.Save(path); err != nil {
			t.Fatal(err)
		}
		got, err := Load(path, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got.Table() != "tab" || got.Column() != "col" || got.Constraint() != NearlySorted ||
			got.RequestedKind() != kind || got.Threshold() != 0.25 || !got.Descending() {
			t.Errorf("%v: metadata mismatch: %s", kind, got)
		}
		if got.Cardinality() != ix.Cardinality() || got.NumRows() != ix.NumRows() {
			t.Fatalf("%v: payload counts differ", kind)
		}
		for p := 0; p < 3; p++ {
			a, b := ix.Partition(p), got.Partition(p)
			if a.NumRows() != b.NumRows() {
				t.Fatalf("%v: partition %d rows differ", kind, p)
			}
			for row := uint64(0); row < uint64(a.NumRows()); row++ {
				if a.Contains(row) != b.Contains(row) {
					t.Fatalf("%v: membership differs at p%d/%d", kind, p, row)
				}
			}
		}
	}
}

func TestSaveUnbuiltFails(t *testing.T) {
	ix, _ := NewIndex("t", "c", NearlyUnique, Auto, 1, 2)
	if err := ix.Save(filepath.Join(t.TempDir(), "x.pidx")); err == nil {
		t.Error("saving an unbuilt index must fail")
	}
}

func TestLoadMissingFile(t *testing.T) {
	if _, err := Load(filepath.Join(t.TempDir(), "nope.pidx"), nil); err == nil {
		t.Error("missing file must fail")
	}
}

func TestLoadCorruptFile(t *testing.T) {
	dir := t.TempDir()
	ix, _ := NewIndex("t", "c", NearlyUnique, Auto, 1, 1)
	if err := ix.SetPartition(0, []uint64{1, 5}, 10); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "x.pidx")
	if err := ix.Save(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a payload byte: checksum must catch it.
	data[len(data)-10] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path, nil); !errors.Is(err, ErrBadIndexFile) {
		t.Errorf("expected ErrBadIndexFile, got %v", err)
	}
	// Garbage file.
	if err := os.WriteFile(path, []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path, nil); !errors.Is(err, ErrBadIndexFile) {
		t.Errorf("expected ErrBadIndexFile for garbage, got %v", err)
	}
	// Truncated file.
	if err := ix.Save(path); err != nil {
		t.Fatal(err)
	}
	data, _ = os.ReadFile(path)
	if err := os.WriteFile(path, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path, nil); !errors.Is(err, ErrBadIndexFile) {
		t.Errorf("expected ErrBadIndexFile for truncation, got %v", err)
	}
}

func TestSaveOverwritesAtomically(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "x.pidx")
	ix, _ := NewIndex("t", "c", NearlyUnique, Auto, 1, 1)
	if err := ix.SetPartition(0, []uint64{1}, 4); err != nil {
		t.Fatal(err)
	}
	if err := ix.Save(path); err != nil {
		t.Fatal(err)
	}
	ix2, _ := NewIndex("t", "c", NearlyUnique, Auto, 1, 1)
	if err := ix2.SetPartition(0, []uint64{0, 2}, 6); err != nil {
		t.Fatal(err)
	}
	if err := ix2.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cardinality() != 2 || got.NumRows() != 6 {
		t.Error("overwrite did not take effect")
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Error("temporary file left behind")
	}
}

func TestLoadEmptySets(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.pidx")
	ix, _ := NewIndex("t", "c", NearlySorted, Bitmap, 0.5, 2)
	if err := ix.SetPartition(0, nil, 0); err != nil {
		t.Fatal(err)
	}
	if err := ix.SetPartition(1, nil, 100); err != nil {
		t.Fatal(err)
	}
	if err := ix.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cardinality() != 0 || got.NumRows() != 100 {
		t.Error("empty sets round trip")
	}
}

func TestLoadChecksExpectedRows(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.pidx")
	ix, _ := NewIndex("t", "c", NearlyUnique, Auto, 1, 2)
	if err := ix.SetPartition(0, []uint64{1}, 10); err != nil {
		t.Fatal(err)
	}
	if err := ix.SetPartition(1, nil, 20); err != nil {
		t.Fatal(err)
	}
	if err := ix.Save(path); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path, []int{10, 20}); err != nil {
		t.Fatalf("matching rows: %v", err)
	}
	for _, rows := range [][]int{{10, 21}, {10}, {10, 20, 0}} {
		if _, err := Load(path, rows); !errors.Is(err, ErrBadIndexFile) {
			t.Errorf("rows %v: expected ErrBadIndexFile, got %v", rows, err)
		}
	}
}

// reseal replaces the trailing checksum so a doctored image passes the CRC
// and reaches the structural checks.
func reseal(data []byte) []byte {
	if len(data) < 4 {
		return data
	}
	body := data[:len(data)-4]
	return binary.LittleEndian.AppendUint32(append([]byte{}, body...), crc32.ChecksumIEEE(body))
}

// TestLoadBoundsHeaderCounts doctors the counts of a correctly checksummed
// file: huge row, id and word counts must fail before anything is allocated
// for them.
func TestLoadBoundsHeaderCounts(t *testing.T) {
	ix, _ := NewIndex("t", "c", NearlyUnique, Identifier, 1, 1)
	if err := ix.SetPartition(0, []uint64{1, 5}, 10); err != nil {
		t.Fatal(err)
	}
	img := ix.encode()
	// Header: magic 4, "t" 5, "c" 5, constraint 1, kind 1, threshold 8,
	// descending 1, partitions 4 — the first partition starts at 29.
	const part0 = 29
	for name, patch := range map[string]func(b []byte){
		"numRows": func(b []byte) { binary.LittleEndian.PutUint64(b[part0:], 1<<62) },
		"count":   func(b []byte) { binary.LittleEndian.PutUint64(b[part0+9:], 1<<61) },
		"parts":   func(b []byte) { binary.LittleEndian.PutUint32(b[part0-4:], 1<<15) },
	} {
		b := append([]byte{}, img...)
		patch(b)
		if _, err := decode(reseal(b), nil); !errors.Is(err, ErrBadIndexFile) {
			t.Errorf("%s: expected ErrBadIndexFile, got %v", name, err)
		}
	}
	if _, err := decode(img, []int{10}); err != nil {
		t.Fatalf("undoctored image: %v", err)
	}
}

// FuzzPatchLoad feeds arbitrary bytes to the loader, both as given and with
// a valid checksum appended: corrupt input must return an error, never
// panic or allocate from an unchecked count.
func FuzzPatchLoad(f *testing.F) {
	for _, kind := range []Kind{Identifier, Bitmap} {
		ix, _ := NewIndex("tab", "col", NearlyUnique, kind, 0.5, 2)
		if err := ix.SetPartition(0, []uint64{0, 3, 64, 99}, 100); err != nil {
			f.Fatal(err)
		}
		if err := ix.SetPartition(1, []uint64{7}, 70); err != nil {
			f.Fatal(err)
		}
		f.Add(ix.encode())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, img := range [][]byte{data, reseal(data)} {
			for _, rows := range [][]int{nil, {100, 70}} {
				ix, err := decode(img, rows)
				if err != nil {
					if !errors.Is(err, ErrBadIndexFile) {
						t.Fatalf("error %v is not ErrBadIndexFile", err)
					}
					continue
				}
				if !ix.Ready() {
					t.Fatal("decoded index has unbuilt partitions")
				}
			}
		}
	})
}
