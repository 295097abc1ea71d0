package patchindex

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"patchindex/internal/catalog"
	"patchindex/internal/discovery"
	"patchindex/internal/patch"
	"patchindex/internal/vector"
)

// Restart tests for patch sets saved in the checkpoint generation: a
// checkpointed reopen loads every index from its file and replays the WAL
// suffix through maintenance; rediscovery is only the fallback.

const ixRowsPerPart = 3000

// ixBatch generates n rows of ev(u BIGINT, s BIGINT, tag VARCHAR) starting
// at row id lo: u unique apart from ~5 % repeats of earlier values, s
// ascending apart from ~5 % late values, tag nearly unique strings.
func ixBatch(rng *rand.Rand, lo, n int) []*vector.Vector {
	u, s, tag := vector.New(vector.Int64, n), vector.New(vector.Int64, n), vector.New(vector.String, n)
	for i := lo; i < lo+n; i++ {
		switch {
		case i%101 == 0:
			u.AppendNull()
		case i > 0 && rng.Intn(20) == 0:
			u.AppendInt64(int64(rng.Intn(i)))
		default:
			u.AppendInt64(int64(i))
		}
		if rng.Intn(20) == 0 {
			s.AppendInt64(int64(10*i - rng.Intn(500)))
		} else {
			s.AppendInt64(int64(10 * i))
		}
		tag.AppendString(fmt.Sprintf("t%d", i-i%(1+rng.Intn(30)/29)))
	}
	return []*vector.Vector{u, s, tag}
}

// loadIndexedTable creates ev over two partitions with NUC indexes on u and
// tag and a NSC index on s.
func loadIndexedTable(t *testing.T, e *Engine, rng *rand.Rand) {
	t.Helper()
	mustExec(t, e, "CREATE TABLE ev (u BIGINT, s BIGINT, tag VARCHAR)")
	for p := 0; p < 2; p++ {
		if err := e.LoadColumns("ev", p, ixBatch(rng, p*ixRowsPerPart, ixRowsPerPart)); err != nil {
			t.Fatal(err)
		}
	}
	mustExec(t, e, "CREATE PATCHINDEX ON ev(u) UNIQUE THRESHOLD 0.5")
	mustExec(t, e, "CREATE PATCHINDEX ON ev(tag) UNIQUE THRESHOLD 0.5")
	mustExec(t, e, "CREATE PATCHINDEX ON ev(s) SORTED THRESHOLD 0.5")
}

// appendSuffix appends rows to both partitions through the maintained,
// write-ahead-logged path.
func appendSuffix(t *testing.T, e *Engine, rng *rand.Rand, lo, n int) {
	t.Helper()
	for p := 0; p < 2; p++ {
		if err := e.Append("ev", p, ixBatch(rng, lo+p*n, n)); err != nil {
			t.Fatal(err)
		}
	}
}

var ixQueries = []string{
	"SELECT COUNT(DISTINCT u) FROM ev",
	"SELECT DISTINCT u FROM ev ORDER BY u",
	"SELECT COUNT(DISTINCT tag) FROM ev",
	"SELECT s FROM ev ORDER BY s",
	"SELECT COUNT(*), SUM(u), SUM(s) FROM ev",
}

// ixAnswers runs every query with rewrites on and off, requires the two to
// agree, and returns the answers.
func ixAnswers(t *testing.T, e *Engine) []string {
	t.Helper()
	var out []string
	for _, q := range ixQueries {
		on := renderRows(mustExec(t, e, q))
		offRes, err := e.ExecWith(q, ExecOptions{DisablePatchRewrites: true})
		if err != nil {
			t.Fatalf("%s (rewrites off): %v", q, err)
		}
		if off := renderRows(offRes); strings.Join(on, ";") != strings.Join(off, ";") {
			t.Fatalf("%s: rewrites on and off disagree (%d vs %d rows)", q, len(on), len(off))
		}
		out = append(out, q+" => "+strings.Join(on, ";"))
	}
	return out
}

func sameAnswers(t *testing.T, got, want []string) {
	t.Helper()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("answer %d differs after reopen:\n got %.200s\nwant %.200s", i, got[i], want[i])
		}
	}
}

// setIDs lists the patch row ids of a set.
func setIDs(s patch.Set) []uint64 {
	var ids []uint64
	for it := s.Iter(0); it.Valid(); it.Next() {
		ids = append(ids, it.Row())
	}
	return ids
}

// verifyIndexes checks every index of ev against the constraint conditions
// (NUC globally across partitions, NSC per partition), and each NUC against
// a fresh discovery, which maintenance must match exactly (it keeps the set
// minimal).
func verifyIndexes(t *testing.T, e *Engine) {
	t.Helper()
	tab, err := e.Catalog().Table("ev")
	if err != nil {
		t.Fatal(err)
	}
	for _, ix := range e.Catalog().Indexes() {
		col := tab.Schema().ColumnIndex(ix.Column())
		switch ix.Constraint() {
		case patch.NearlyUnique:
			all := vector.New(tab.Schema().Columns[col].Typ, tab.NumRows())
			var patches []uint64
			for p := 0; p < tab.NumPartitions(); p++ {
				for _, id := range setIDs(ix.Partition(p)) {
					patches = append(patches, uint64(all.Len())+id)
				}
				v := tab.Partition(p).Column(col)
				all.AppendRange(v, 0, v.Len())
			}
			if err := discovery.VerifyNUC(all, patches); err != nil {
				t.Errorf("%s: %v", ix, err)
			}
			fresh, err := discovery.BuildIndex(tab, ix.Column(), patch.NearlyUnique, discovery.BuildOptions{Threshold: 1})
			if err != nil {
				t.Fatal(err)
			}
			for p := 0; p < tab.NumPartitions(); p++ {
				if fmt.Sprint(setIDs(ix.Partition(p))) != fmt.Sprint(setIDs(fresh.Partition(p))) {
					t.Errorf("%s partition %d: maintained patches differ from rediscovery", ix, p)
				}
			}
		case patch.NearlySorted:
			for p := 0; p < tab.NumPartitions(); p++ {
				if err := discovery.VerifyNSC(tab.Partition(p).Column(col), setIDs(ix.Partition(p)), ix.Descending()); err != nil {
					t.Errorf("%s partition %d: %v", ix, p, err)
				}
			}
		}
	}
}

// indexedDataDir builds a data dir holding ev checkpointed once, plus an
// uncheckpointed suffix in the WAL; it returns the engine (still open) and
// the answers it gives.
func indexedDataDir(t *testing.T, dir string) (*Engine, []string) {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	e := newDurableEngine(t, dir, 0)
	loadIndexedTable(t, e, rng)
	mustExec(t, e, "CHECKPOINT")
	appendSuffix(t, e, rng, 2*ixRowsPerPart, 700)
	return e, ixAnswers(t, e)
}

func wantRecovery(t *testing.T, e *Engine, loaded, rediscovered int) {
	t.Helper()
	rec := e.Recovery()
	if rec.IndexesLoaded != loaded || rec.IndexesRediscovered != rediscovered {
		t.Errorf("indexes loaded/rediscovered = %d/%d, want %d/%d",
			rec.IndexesLoaded, rec.IndexesRediscovered, loaded, rediscovered)
	}
	if rec.ReplayedRows != 1400 {
		t.Errorf("ReplayedRows = %d, want the 1400-row suffix", rec.ReplayedRows)
	}
}

// TestDurableReopenLoadsIndexes: a checkpointed reopen with a WAL suffix
// loads every patch set from the checkpoint generation and rediscovers
// nothing; the restored, maintained indexes satisfy their constraints and
// answer exactly as before the restart.
func TestDurableReopenLoadsIndexes(t *testing.T) {
	dir := t.TempDir()
	e, want := indexedDataDir(t, dir)
	e.Close()

	e2 := newDurableEngine(t, dir, 0)
	defer e2.Close()
	wantRecovery(t, e2, 3, 0)
	sameAnswers(t, ixAnswers(t, e2), want)
	verifyIndexes(t, e2)

	// Maintenance keeps working after the restart.
	appendSuffix(t, e2, rand.New(rand.NewSource(9)), 20_000, 300)
	ixAnswers(t, e2)
	verifyIndexes(t, e2)
}

// TestDurableReopenUnderCacheBudget repeats the reopen with a cache far
// smaller than the table, so maintainer set-up reads cold partitions from
// their segments.
func TestDurableReopenUnderCacheBudget(t *testing.T) {
	dir := t.TempDir()
	e, want := indexedDataDir(t, dir)
	e.Close()

	e2 := newDurableEngine(t, dir, 4096)
	defer e2.Close()
	wantRecovery(t, e2, 3, 0)
	sameAnswers(t, ixAnswers(t, e2), want)
	verifyIndexes(t, e2)
}

// TestDurableIndexCreatedAfterCheckpoint: an index whose only record is in
// the WAL suffix is rediscovered; the checkpointed ones still load.
func TestDurableIndexCreatedAfterCheckpoint(t *testing.T) {
	dir := t.TempDir()
	e, _ := indexedDataDir(t, dir)
	mustExec(t, e, "DROP PATCHINDEX ON ev(tag)")
	mustExec(t, e, "CREATE PATCHINDEX ON ev(tag) UNIQUE THRESHOLD 0.5")
	want := ixAnswers(t, e)
	e.Close()

	e2 := newDurableEngine(t, dir, 0)
	defer e2.Close()
	// The manifest's tag index loads, the replayed DROP discards it, and
	// the replayed CREATE rediscovers it.
	wantRecovery(t, e2, 3, 1)
	sameAnswers(t, ixAnswers(t, e2), want)
	verifyIndexes(t, e2)
}

// TestDurableDropIndexStaysDropped: a DROP PATCHINDEX survives a restart
// whether it is only in the WAL suffix or already checkpointed. After the
// checkpoint the manifest no longer names the index and its patch-set file
// is swept.
func TestDurableDropIndexStaysDropped(t *testing.T) {
	for _, checkpoint := range []bool{false, true} {
		name := "wal-suffix"
		if checkpoint {
			name = "checkpoint"
		}
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			e, _ := indexedDataDir(t, dir)
			dropped := manifestIndexFiles(t, dir)["s"]
			if dropped == "" {
				t.Fatal("manifest has no index file for s")
			}
			mustExec(t, e, "DROP PATCHINDEX ON ev(s)")
			want := ixAnswers(t, e)
			if checkpoint {
				mustExec(t, e, "CHECKPOINT")
				if f, ok := manifestIndexFiles(t, dir)["s"]; ok {
					t.Errorf("manifest still holds the dropped index (%s)", f)
				}
				if _, err := os.Stat(filepath.Join(dir, dropped)); !os.IsNotExist(err) {
					t.Errorf("dropped index file %s not swept", dropped)
				}
			}
			e.Close()

			e2 := newDurableEngine(t, dir, 0)
			defer e2.Close()
			if checkpoint {
				if rec := e2.Recovery(); rec.IndexesLoaded != 2 || rec.IndexesRediscovered != 0 {
					t.Errorf("indexes loaded/rediscovered = %d/%d, want 2/0", rec.IndexesLoaded, rec.IndexesRediscovered)
				}
			} else {
				// The manifest's s index loads and the replayed DROP discards it.
				wantRecovery(t, e2, 3, 0)
			}
			if e2.Catalog().Index("ev", "s") != nil {
				t.Error("dropped index on s is back after the restart")
			}
			sameAnswers(t, ixAnswers(t, e2), want)
			verifyIndexes(t, e2)
		})
	}
}

// TestWALRecovery: with no checkpoint every index comes back from the WAL
// alone. The replayed CREATEs rediscover the indexes with their original
// cardinality, and the replayed DROP keeps the dropped one away.
func TestWALRecovery(t *testing.T) {
	dir := t.TempDir()
	e := newDurableEngine(t, dir, 0)
	loadIndexedTable(t, e, rand.New(rand.NewSource(11)))
	mustExec(t, e, "DROP PATCHINDEX ON ev(s)")
	want := ixAnswers(t, e)
	card := e.Catalog().Index("ev", "u").Cardinality()
	e.Close()

	e2 := newDurableEngine(t, dir, 0)
	defer e2.Close()
	if rec := e2.Recovery(); rec.IndexesLoaded != 0 {
		t.Errorf("IndexesLoaded = %d without a checkpoint, want 0", rec.IndexesLoaded)
	}
	ix := e2.Catalog().Index("ev", "u")
	if ix == nil {
		t.Fatal("index on u not recovered")
	}
	if ix.Cardinality() != card {
		t.Errorf("recovered cardinality %d, want %d", ix.Cardinality(), card)
	}
	if e2.Catalog().Index("ev", "s") != nil {
		t.Error("dropped index on s should not be recovered")
	}
	sameAnswers(t, ixAnswers(t, e2), want)
	verifyIndexes(t, e2)
}

// TestDropRemovesMaterialization: dropping an index that a restart loaded
// from its patch-set file deletes that file at the next checkpoint; the
// files of the kept indexes stay.
func TestDropRemovesMaterialization(t *testing.T) {
	dir := t.TempDir()
	e, _ := indexedDataDir(t, dir)
	e.Close()
	files := manifestIndexFiles(t, dir)

	e2 := newDurableEngine(t, dir, 0)
	defer e2.Close()
	mustExec(t, e2, "DROP PATCHINDEX ON ev(u)")
	mustExec(t, e2, "CHECKPOINT")
	if _, err := os.Stat(filepath.Join(dir, files["u"])); !os.IsNotExist(err) {
		t.Errorf("drop must remove the materialized file %s", files["u"])
	}
	kept := manifestIndexFiles(t, dir)
	if _, ok := kept["u"]; ok || len(kept) != 2 {
		t.Errorf("manifest index files = %v, want only s and tag", kept)
	}
	for _, f := range kept {
		if _, err := os.Stat(filepath.Join(dir, f)); err != nil {
			t.Errorf("kept index file: %v", err)
		}
	}
}

func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(src, path)
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// manifestIndexFiles returns the index files the data dir's manifest names.
func manifestIndexFiles(t *testing.T, dir string) map[string]string {
	t.Helper()
	m, err := catalog.LoadManifest(filepath.Join(dir, manifestName))
	if err != nil || m == nil {
		t.Fatalf("manifest: %v", err)
	}
	files := map[string]string{}
	for _, mi := range m.Indexes {
		files[mi.Column] = mi.File
	}
	return files
}

// TestDurableCrashBeforeManifestRename: a crash after the next generation's
// segment and index files are written but before the manifest rename
// recovers from the previous generation, and the next checkpoint sweeps the
// leftovers, temporary files included.
func TestDurableCrashBeforeManifestRename(t *testing.T) {
	dir := t.TempDir()
	e, want := indexedDataDir(t, dir)
	crashed := t.TempDir()
	copyDir(t, dir, crashed) // manifest g1 + WAL g1 holding the suffix
	mustExec(t, e, "CHECKPOINT")
	e.Close()
	// The crash left g2's files and a checkpoint's temporaries behind.
	ents, err := os.ReadDir(filepath.Join(dir, "segs"))
	if err != nil {
		t.Fatal(err)
	}
	g2 := 0
	for _, ent := range ents {
		if strings.Contains(ent.Name(), ".g2.") {
			data, err := os.ReadFile(filepath.Join(dir, "segs", ent.Name()))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(crashed, "segs", ent.Name()), data, 0o644); err != nil {
				t.Fatal(err)
			}
			g2++
		}
	}
	if g2 < 3 {
		t.Fatalf("second checkpoint wrote %d g2 files, want segments and 3 index files", g2)
	}
	for _, junk := range []string{"ev.u.nuc.g3.pidx.tmp", "ev.p0.g3.seg.tmp"} {
		if err := os.WriteFile(filepath.Join(crashed, "segs", junk), []byte("partial"), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	e2 := newDurableEngine(t, crashed, 0)
	defer e2.Close()
	wantRecovery(t, e2, 3, 0)
	for col, file := range manifestIndexFiles(t, crashed) {
		if !strings.Contains(file, ".g1.") {
			t.Errorf("index on %s restored from %s, want the g1 file", col, file)
		}
	}
	sameAnswers(t, ixAnswers(t, e2), want)

	mustExec(t, e2, "CHECKPOINT")
	live := map[string]bool{}
	for _, f := range manifestIndexFiles(t, crashed) {
		live[filepath.Base(f)] = true
	}
	ents, err = os.ReadDir(filepath.Join(crashed, "segs"))
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range ents {
		name := ent.Name()
		if strings.HasSuffix(name, ".tmp") || (strings.HasSuffix(name, ".pidx") && !live[name]) {
			t.Errorf("leftover %s survived the sweep", name)
		}
	}
}

// TestDurableBadIndexFileFallsBack: a corrupt, truncated or missing index
// file falls back to rediscovery with identical answers.
func TestDurableBadIndexFileFallsBack(t *testing.T) {
	base := t.TempDir()
	e, want := indexedDataDir(t, base)
	e.Close()
	for name, damage := range map[string]func(path string) error{
		"corrupt": func(path string) error {
			data, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			data[len(data)/2] ^= 0x55
			return os.WriteFile(path, data, 0o644)
		},
		"truncated": func(path string) error {
			data, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			return os.WriteFile(path, data[:len(data)/3], 0o644)
		},
		"missing": os.Remove,
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			copyDir(t, base, dir)
			if err := damage(filepath.Join(dir, manifestIndexFiles(t, dir)["u"])); err != nil {
				t.Fatal(err)
			}
			e2 := newDurableEngine(t, dir, 0)
			defer e2.Close()
			wantRecovery(t, e2, 2, 1)
			sameAnswers(t, ixAnswers(t, e2), want)
			verifyIndexes(t, e2)
		})
	}
}

// TestDurableManifestWithoutIndexFiles opens a data dir whose manifest
// predates index files (no "file" in its index records): every index is
// rediscovered and the answers are unchanged.
func TestDurableManifestWithoutIndexFiles(t *testing.T) {
	dir := t.TempDir()
	e, want := indexedDataDir(t, dir)
	e.Close()
	path := filepath.Join(dir, manifestName)
	m, err := catalog.LoadManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := range m.Indexes {
		m.Indexes[i].File = ""
	}
	if err := catalog.SaveManifest(path, m); err != nil {
		t.Fatal(err)
	}
	if data, _ := os.ReadFile(path); strings.Contains(string(data), ".pidx") {
		t.Fatal("manifest still names index files")
	}

	e2 := newDurableEngine(t, dir, 0)
	defer e2.Close()
	wantRecovery(t, e2, 0, 3)
	sameAnswers(t, ixAnswers(t, e2), want)
	verifyIndexes(t, e2)
}

// TestDurableCheckpointKeepsUnchangedIndexFile: a checkpoint with no writes
// keeps pointing at the previous generation's index files; after appends
// the next checkpoint writes new ones and sweeps the old.
func TestDurableCheckpointKeepsUnchangedIndexFile(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(3))
	e := newDurableEngine(t, dir, 0)
	defer e.Close()
	loadIndexedTable(t, e, rng)
	mustExec(t, e, "CHECKPOINT")
	first := manifestIndexFiles(t, dir)
	mustExec(t, e, "CHECKPOINT")
	if second := manifestIndexFiles(t, dir); fmt.Sprint(second) != fmt.Sprint(first) {
		t.Errorf("unchanged indexes got new files: %v, want %v", second, first)
	}
	for _, f := range first {
		if _, err := os.Stat(filepath.Join(dir, f)); err != nil {
			t.Errorf("referenced index file swept: %v", err)
		}
	}
	appendSuffix(t, e, rng, 2*ixRowsPerPart, 50)
	mustExec(t, e, "CHECKPOINT")
	for col, f := range manifestIndexFiles(t, dir) {
		if f == first[col] {
			t.Errorf("index on %s changed but kept file %s", col, f)
		}
		if _, err := os.Stat(filepath.Join(dir, first[col])); !os.IsNotExist(err) {
			t.Errorf("superseded %s not swept", first[col])
		}
	}
}
