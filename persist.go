// Durable storage: the engine half of disk-backed compressed column
// segments. With Config.DataDir set the engine runs in durable mode —
// table data lives in per-partition segment files under <DataDir>/segs,
// decoded payloads are budgeted by a clock cache, ingest is write-ahead
// logged, and CHECKPOINT flushes dirty partitions + saves every PatchIndex's
// patch set + writes the catalog manifest + rotates the WAL so restart
// replays only the suffix.
//
// Patch sets are part of the checkpoint generation (Section V's "materialize"
// alternative: durability, easy recovery). Each ready index is saved in the
// CRC-checked PIX1 format as <DataDir>/segs/<table>.<col>.<nuc|nsc>.gN.pidx,
// referenced by the manifest's index record. An index that gained no rows
// since its file was written keeps pointing at that earlier generation's
// file, as clean partitions keep their segments. Restart loads each file,
// checks it against the manifest's per-partition row counts and the
// record's table, column and constraint, and replays the WAL suffix through
// the ordinary maintained append — O(|patches| + suffix) instead of
// rediscovery over the table. Rediscovery remains the fallback for
// manifests without index files, missing or corrupt files, shape
// mismatches, and indexes created after the last checkpoint (their slim WAL
// record is all there is).
//
// Crash protocol: the manifest rename is the checkpoint's commit point. The
// manifest names the segment generation, the index files and the WAL file
// carrying records after it, so recovery always pairs a consistent snapshot
// with exactly its suffix — a crash before the rename recovers from the
// previous pair, a crash after it from the new one. Segment and index files
// are written and fsynced before the rename. Superseded generations, WAL
// files and the temporary files of a checkpoint that crashed are orphans
// swept by the next successful checkpoint.
package patchindex

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"patchindex/internal/catalog"
	"patchindex/internal/patch"
	"patchindex/internal/storage"
	"patchindex/internal/vector"
	"patchindex/internal/wal"
)

const (
	manifestName = "MANIFEST.json"
	segDirName   = "segs" // segment and patch-set files, under DataDir
)

// walLogRows bounds the rows per WAL data record so one record stays well
// under the replayer's 16 MiB corruption guard even for wide string columns.
const walLogRows = 8192

// RecoveryStats describes what the last engine open had to do to restore
// state — the crash-restart suite asserts a checkpointed reopen replays only
// the WAL suffix.
type RecoveryStats struct {
	ManifestTables      int           // tables restored lazily from segment files
	ManifestIndexes     int           // index definitions restored from the manifest
	IndexesLoaded       int           // indexes restored from checkpointed patch-set files
	IndexesRediscovered int           // indexes rebuilt by discovery (manifest fallback or WAL suffix)
	ReplayedRecords     int           // total WAL records replayed
	ReplayedAppends     int           // data (ingest) records among them
	ReplayedRows        int64         // rows re-applied from the WAL suffix
	Duration            time.Duration // wall time of manifest load + replay
}

// CheckpointStats summarizes one checkpoint.
type CheckpointStats struct {
	Generation        uint64
	PartitionsFlushed int
	SegmentBytes      int64 // compressed payload bytes across flushed partitions
	Duration          time.Duration
}

// Recovery returns the stats of the restore performed when the engine
// opened (zero for non-durable engines).
func (e *Engine) Recovery() RecoveryStats { return e.recovery }

// Cache returns the engine's segment cache (nil unless durable mode).
func (e *Engine) Cache() *storage.Cache { return e.cache }

// durable reports whether the engine manages disk-backed segments.
func (e *Engine) durable() bool { return e.cfg.DataDir != "" }

func (e *Engine) segDir() string       { return filepath.Join(e.cfg.DataDir, segDirName) }
func (e *Engine) manifestPath() string { return filepath.Join(e.cfg.DataDir, manifestName) }

// spillDir resolves the operator spill directory: Config.SpillDir, else a
// spill/ dir inside DataDir (durable mode), else the OS temp dir ("").
func (e *Engine) spillDir() string {
	if e.cfg.SpillDir != "" {
		return e.cfg.SpillDir
	}
	if e.durable() {
		return filepath.Join(e.cfg.DataDir, "spill")
	}
	return ""
}

func walFileName(gen uint64) string { return fmt.Sprintf("wal.g%d.log", gen) }

func segFileName(table string, part int, gen uint64) string {
	return fmt.Sprintf("%s.p%d.g%d.seg", table, part, gen)
}

func indexFileName(ix *patch.Index, gen uint64) string {
	return fmt.Sprintf("%s.%s.%s.g%d.pidx", ix.Table(), ix.Column(), constraintTag(ix.Constraint()), gen)
}

// openDataDir restores the engine from DataDir: manifest tables load lazily
// (payloads stay on disk behind the cache), manifest indexes load from their
// checkpointed patch-set files (rediscovery only as the fallback), then the
// WAL suffix replays through the ordinary maintained-append path. Called
// from New before the engine is shared, so no latching subtleties apply.
func (e *Engine) openDataDir() error {
	start := time.Now()
	if err := os.MkdirAll(e.segDir(), 0o755); err != nil {
		return fmt.Errorf("patchindex: data dir: %w", err)
	}
	if e.cfg.SpillBytes > 0 {
		if err := os.MkdirAll(e.spillDir(), 0o755); err != nil {
			return fmt.Errorf("patchindex: spill dir: %w", err)
		}
	}
	m, err := catalog.LoadManifest(e.manifestPath())
	if err != nil {
		return err
	}
	walFile := walFileName(0)
	if m != nil {
		e.gen = m.Generation
		if m.WALFile != "" {
			walFile = m.WALFile
		}
	}
	e.walPath = filepath.Join(e.cfg.DataDir, walFile)
	log, err := wal.Open(e.walPath)
	if err != nil {
		return err
	}
	log.SetMetrics(e.metrics)
	e.log = log

	e.replaying = true
	defer func() { e.replaying = false }()
	e.indexFiles = map[*patch.Index]indexFile{}

	if m != nil {
		rows := make(map[string][]int, len(m.Tables))
		for _, mt := range m.Tables {
			cols := make([]storage.Column, len(mt.Columns))
			for i, c := range mt.Columns {
				cols[i] = storage.Column{Name: c.Name, Typ: vector.Type(c.Typ)}
			}
			paths := make([]string, len(mt.Partitions))
			partRows := make([]int, len(mt.Partitions))
			for i, p := range mt.Partitions {
				paths[i] = filepath.Join(e.cfg.DataDir, p.File)
				partRows[i] = p.Rows
			}
			rows[mt.Name] = partRows
			t, err := storage.LoadTable(mt.Name, storage.NewSchema(cols...), mt.SortKey, paths, e.cache)
			if err != nil {
				return err
			}
			if err := e.cat.AddTable(t); err != nil {
				return err
			}
			e.recovery.ManifestTables++
		}
		for i := range m.Indexes {
			mi := &m.Indexes[i]
			rec := wal.CreateIndexRecord{
				Table:      mi.Table,
				Column:     mi.Column,
				Constraint: mi.Constraint,
				Kind:       mi.Kind,
				Threshold:  mi.Threshold,
				Descending: mi.Descending,
			}
			e.recovery.ManifestIndexes++
			if partRows, ok := rows[mi.Table]; ok && mi.File != "" {
				if ix := loadIndexFile(filepath.Join(e.cfg.DataDir, mi.File), &rec, partRows); ix != nil {
					if err := e.cat.AddIndex(ix); err != nil {
						return err
					}
					e.indexFiles[ix] = indexFile{name: mi.File, rows: ix.NumRows()}
					e.recovery.IndexesLoaded++
					continue
				}
			}
			if _, err := e.createIndexNoLog(&rec); err != nil {
				return fmt.Errorf("patchindex: restoring index on %s.%s: %w", mi.Table, mi.Column, err)
			}
			e.recovery.IndexesRediscovered++
		}
	}

	if err := e.replayWAL(); err != nil {
		return err
	}
	e.recovery.Duration = time.Since(start)
	return nil
}

// replayWAL applies the post-checkpoint suffix.
func (e *Engine) replayWAL() error {
	return wal.Replay(e.walPath, func(entry wal.Entry) error {
		e.recovery.ReplayedRecords++
		switch entry.Kind {
		case wal.RecordCreateIndex:
			r := entry.Create
			if e.cat.Lookup(r.Table, r.Column, patch.Constraint(r.Constraint)) != nil {
				return nil
			}
			e.recovery.IndexesRediscovered++
			_, err := e.createIndexNoLog(r)
			return err
		case wal.RecordDropIndex:
			r := entry.Drop
			if e.cat.Index(r.Table, r.Column) == nil {
				return nil
			}
			if err := e.cat.DropIndex(r.Table, r.Column); err != nil {
				return err
			}
			e.invalidateMaintainers(r.Table)
			return nil
		case wal.RecordCreateTable:
			r := entry.CreateTable
			if t, _ := e.cat.Table(r.Table); t != nil {
				return nil
			}
			cols := make([]storage.Column, len(r.ColNames))
			for i, name := range r.ColNames {
				cols[i] = storage.Column{Name: name, Typ: vector.Type(r.ColTypes[i])}
			}
			t, err := storage.NewTable(r.Table, storage.NewSchema(cols...), int(r.Partitions))
			if err != nil {
				return err
			}
			if r.SortKey != "" {
				if err := t.SetSortKey(r.SortKey); err != nil {
					return err
				}
			}
			t.AttachCache(e.cache)
			return e.cat.AddTable(t)
		case wal.RecordDropTable:
			r := entry.DropTable
			t, err := e.cat.Table(r.Table)
			if err != nil {
				return nil // already gone
			}
			if err := e.cat.DropTable(r.Table); err != nil {
				return err
			}
			t.ReleaseStorage()
			e.invalidateMaintainers(r.Table)
			return nil
		case wal.RecordAppend:
			r := entry.Append
			cols, _, err := vector.DecodeColumns(r.Cols)
			if err != nil {
				return fmt.Errorf("patchindex: replay append into %s: %w", r.Table, err)
			}
			e.recovery.ReplayedAppends++
			if len(cols) > 0 {
				e.recovery.ReplayedRows += int64(cols[0].Len())
			}
			return e.appendLatched(r.Table, int(r.Partition), cols)
		default:
			return nil
		}
	})
}

// logAppend write-ahead logs an ingest batch, chunked so any single record
// stays within the replayer's framing guard. No-op outside durable mode and
// during replay.
func (e *Engine) logAppend(table string, part int, cols []*vector.Vector) error {
	if e.log == nil || e.replaying {
		return nil
	}
	n := 0
	if len(cols) > 0 {
		n = cols[0].Len()
	}
	for lo := 0; lo < n || lo == 0; lo += walLogRows {
		hi := lo + walLogRows
		if hi > n {
			hi = n
		}
		chunk := cols
		if lo != 0 || hi != n {
			chunk = make([]*vector.Vector, len(cols))
			for i, v := range cols {
				c := vector.New(v.Typ, hi-lo)
				c.AppendRange(v, lo, hi)
				chunk[i] = c
			}
		}
		rec := wal.AppendRecord{
			Table:     table,
			Partition: uint32(part),
			Cols:      vector.AppendColumnsBinary(nil, chunk),
		}
		if err := e.log.AppendData(rec); err != nil {
			return err
		}
		if n == 0 {
			break
		}
	}
	return nil
}

// logCreateTable write-ahead logs a CREATE TABLE in durable mode.
func (e *Engine) logCreateTable(t *storage.Table, partitions int) error {
	if e.log == nil || e.replaying {
		return nil
	}
	schema := t.Schema()
	rec := wal.CreateTableRecord{
		Table:      t.Name(),
		SortKey:    t.SortKey(),
		Partitions: uint32(partitions),
	}
	for _, c := range schema.Columns {
		rec.ColNames = append(rec.ColNames, c.Name)
		rec.ColTypes = append(rec.ColTypes, uint8(c.Typ))
	}
	return e.log.AppendCreateTable(rec)
}

// sortedHints marks the columns of a table that an index or declared sort
// key proves (nearly) sorted — those compress with PFOR-DELTA without
// trying plain PFOR first.
func (e *Engine) sortedHints(t *storage.Table) []bool {
	schema := t.Schema()
	hints := make([]bool, len(schema.Columns))
	for i, c := range schema.Columns {
		if t.SortKey() == c.Name {
			hints[i] = true
			continue
		}
		if ix := e.cat.IndexFor(t.Name(), c.Name, patch.NearlySorted); ix != nil && !ix.Descending() {
			hints[i] = true
		}
	}
	return hints
}

// Checkpoint flushes every dirty partition to a new segment generation,
// saves the patch set of every index that changed since its last file,
// writes the catalog manifest (the atomic commit point), rotates the WAL,
// and sweeps orphaned files. It takes exclusive latches on all tables, so
// it serializes against every statement — callers should run it from a
// maintenance cadence, not a query path.
func (e *Engine) Checkpoint() (CheckpointStats, error) {
	if !e.durable() {
		return CheckpointStats{}, fmt.Errorf("patchindex: CHECKPOINT requires a durable engine (Config.DataDir)")
	}
	e.checkpointMu.Lock()
	defer e.checkpointMu.Unlock()
	start := time.Now()
	names := e.cat.TableNames()
	release := e.acquireLatches(nil, names)
	defer release()

	gen := e.gen + 1
	stats := CheckpointStats{Generation: gen}
	m := &catalog.Manifest{Version: 1, Generation: gen, WALFile: walFileName(gen)}
	for _, name := range names {
		t, err := e.cat.Table(name)
		if err != nil {
			continue // dropped between TableNames and here — impossible under latches, defensive
		}
		if !t.CacheAttached() {
			t.AttachCache(e.cache)
		}
		hints := e.sortedHints(t)
		mt := catalog.ManifestTable{Name: name, SortKey: t.SortKey()}
		for _, c := range t.Schema().Columns {
			mt.Columns = append(mt.Columns, catalog.ManifestColumn{Name: c.Name, Typ: uint8(c.Typ)})
		}
		for p := 0; p < t.NumPartitions(); p++ {
			path := t.SegmentPath(p)
			if t.Dirty(p) {
				path = filepath.Join(e.segDir(), segFileName(name, p, gen))
				bytes, err := t.FlushPartition(p, path, hints)
				if err != nil {
					return stats, err
				}
				stats.PartitionsFlushed++
				stats.SegmentBytes += bytes
			}
			rel, err := filepath.Rel(e.cfg.DataDir, path)
			if err != nil {
				rel = path
			}
			mt.Partitions = append(mt.Partitions, catalog.ManifestPartition{File: rel, Rows: t.Partition(p).NumRows()})
		}
		m.Tables = append(m.Tables, mt)
	}
	files := map[*patch.Index]indexFile{}
	for _, ix := range e.cat.Indexes() {
		file, err := e.saveIndex(ix, gen)
		if err != nil {
			return stats, err
		}
		if file.name != "" {
			files[ix] = file
		}
		m.Indexes = append(m.Indexes, catalog.ManifestIndex{
			Table:      ix.Table(),
			Column:     ix.Column(),
			Constraint: uint8(ix.Constraint()),
			Kind:       uint8(ix.RequestedKind()),
			Threshold:  ix.Threshold(),
			Descending: ix.Descending(),
			File:       file.name,
		})
	}

	// Open the next WAL generation before committing the manifest that
	// references it, so the manifest never points at a missing file.
	newWALPath := filepath.Join(e.cfg.DataDir, walFileName(gen))
	newLog, err := wal.Open(newWALPath)
	if err != nil {
		return stats, err
	}
	newLog.SetMetrics(e.metrics)
	if err := catalog.SaveManifest(e.manifestPath(), m); err != nil {
		newLog.Close()
		os.Remove(newWALPath)
		return stats, err
	}
	// Commit point passed: swap logs and sweep orphans.
	oldLog, oldPath := e.log, e.walPath
	e.log, e.walPath, e.gen, e.indexFiles = newLog, newWALPath, gen, files
	if oldLog != nil {
		oldLog.Close()
	}
	if oldPath != newWALPath {
		os.Remove(oldPath)
	}
	e.sweepOrphans(m)
	stats.Duration = time.Since(start)
	e.metrics.Counter("checkpoints_total").Inc()
	e.metrics.Histogram("checkpoint_nanos").Observe(stats.Duration)
	e.metrics.Gauge("storage_segment_bytes").Set(e.totalSegmentBytes())
	return stats, nil
}

// indexFile is a checkpointed patch-set file: its DataDir-relative name and
// the index's row count when it was written.
type indexFile struct {
	name string
	rows int
}

// saveIndex returns the file holding ix's patch set for generation gen. An
// index that covers as many rows as when its file was written keeps that
// file, as a clean partition keeps its segment: only a maintained append
// changes a patch set, and it always adds rows. Otherwise the set is saved
// anew. Unbuilt indexes get no file and are rediscovered on restart.
func (e *Engine) saveIndex(ix *patch.Index, gen uint64) (indexFile, error) {
	rows := ix.NumRows()
	if f, ok := e.indexFiles[ix]; ok && f.rows == rows {
		return f, nil
	}
	if !ix.Ready() {
		return indexFile{}, nil
	}
	name := indexFileName(ix, gen)
	if err := ix.Save(filepath.Join(e.segDir(), name)); err != nil {
		return indexFile{}, err
	}
	return indexFile{name: filepath.Join(segDirName, name), rows: rows}, nil
}

// totalSegmentBytes sums compressed on-disk payloads across tables.
func (e *Engine) totalSegmentBytes() int64 {
	var total int64
	for _, name := range e.cat.TableNames() {
		if t, err := e.cat.Table(name); err == nil {
			total += t.CompressedBytes()
		}
	}
	return total
}

// sweepOrphans removes segment and index files and WAL generations the
// manifest no longer references, and the temporary files a crashed
// checkpoint left behind (no write is in flight: the caller holds
// checkpointMu). Failures are ignored — orphans are garbage, not state.
func (e *Engine) sweepOrphans(m *catalog.Manifest) {
	live := map[string]bool{}
	for _, t := range m.Tables {
		for _, p := range t.Partitions {
			live[filepath.Base(p.File)] = true
		}
	}
	for _, ix := range m.Indexes {
		live[filepath.Base(ix.File)] = true
	}
	if entries, err := os.ReadDir(e.segDir()); err == nil {
		for _, ent := range entries {
			name := ent.Name()
			generation := strings.HasSuffix(name, ".seg") || strings.HasSuffix(name, ".pidx")
			if (generation && !live[name]) || strings.HasSuffix(name, ".tmp") {
				os.Remove(filepath.Join(e.segDir(), name))
			}
		}
	}
	if entries, err := os.ReadDir(e.cfg.DataDir); err == nil {
		for _, ent := range entries {
			name := ent.Name()
			if strings.HasPrefix(name, "wal.g") && strings.HasSuffix(name, ".log") && name != m.WALFile {
				os.Remove(filepath.Join(e.cfg.DataDir, name))
			}
		}
	}
}

// runCheckpoint is the CHECKPOINT statement.
func (e *Engine) runCheckpoint() (*Result, error) {
	stats, err := e.Checkpoint()
	if err != nil {
		return nil, err
	}
	return &Result{Message: fmt.Sprintf(
		"checkpoint g%d: %d partitions flushed, %d segment bytes, wal rotated (%.1fms)",
		stats.Generation, stats.PartitionsFlushed, stats.SegmentBytes,
		float64(stats.Duration.Microseconds())/1000)}, nil
}

// StartCheckpointer runs Checkpoint on a fixed cadence until the returned
// stop func is called. Errors are reported to the slow-query log (the
// engine's operational channel) and do not stop the loop.
func (e *Engine) StartCheckpointer(interval time.Duration) (stop func()) {
	if interval <= 0 || !e.durable() {
		return func() {}
	}
	done := make(chan struct{})
	go func() {
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				if _, err := e.Checkpoint(); err != nil {
					e.slowMu.Lock()
					fmt.Fprintf(e.slowLog, "checkpoint error: %v\n", err)
					e.slowMu.Unlock()
				}
			}
		}
	}()
	var once sync.Once
	return func() { once.Do(func() { close(done) }) }
}
