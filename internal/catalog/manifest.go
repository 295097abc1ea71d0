package catalog

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// Manifest is the checkpoint catalog written alongside segment files: which
// tables exist, which segment file holds each partition, which PatchIndexes
// were defined and which file holds each one's patch set, and which WAL file
// holds the post-checkpoint suffix. A checkpoint writes the new manifest
// with an atomic rename, which is the commit point — the old WAL and
// superseded segment and index generations become orphans the moment the
// rename lands, and a crash on either side of it recovers from a consistent
// (old or new) pairing of manifest + WAL.
type Manifest struct {
	Version    int             `json:"version"`
	Generation uint64          `json:"generation"`
	WALFile    string          `json:"wal_file"`
	Tables     []ManifestTable `json:"tables"`
	Indexes    []ManifestIndex `json:"indexes"`
}

// ManifestTable records one table's schema and segment files.
type ManifestTable struct {
	Name       string              `json:"name"`
	SortKey    string              `json:"sort_key,omitempty"`
	Columns    []ManifestColumn    `json:"columns"`
	Partitions []ManifestPartition `json:"partitions"`
}

// ManifestColumn is one schema column (Typ is a vector.Type).
type ManifestColumn struct {
	Name string `json:"name"`
	Typ  uint8  `json:"typ"`
}

// ManifestPartition points one partition at its segment file (relative to
// the manifest's directory).
type ManifestPartition struct {
	File string `json:"file"`
	Rows int    `json:"rows"`
}

// ManifestIndex records one PatchIndex definition, mirroring the WAL's
// create-index record, and the checkpointed patch-set file (relative to the
// manifest's directory) that restores it without rediscovery. The patches
// are referenced by file, never inlined (Section V: keep the log slim; the
// same applies here). An empty File — an unbuilt index, or a manifest
// written before index files existed — restores by rediscovery.
type ManifestIndex struct {
	Table      string  `json:"table"`
	Column     string  `json:"column"`
	Constraint uint8   `json:"constraint"`
	Kind       uint8   `json:"kind"`
	Threshold  float64 `json:"threshold"`
	Descending bool    `json:"descending,omitempty"`
	File       string  `json:"file,omitempty"`
}

// SaveManifest writes the manifest atomically: temp file, fsync, rename,
// fsync directory.
func SaveManifest(path string, m *Manifest) error {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("catalog: manifest encode: %w", err)
	}
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("catalog: manifest write: %w", err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("catalog: manifest write: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("catalog: manifest sync: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("catalog: manifest close: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("catalog: manifest rename: %w", err)
	}
	if dir, err := os.Open(filepath.Dir(path)); err == nil {
		dir.Sync()
		dir.Close()
	}
	return nil
}

// LoadManifest reads the manifest at path; a missing file returns (nil, nil)
// — a fresh data directory.
func LoadManifest(path string) (*Manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("catalog: manifest read: %w", err)
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("catalog: manifest parse: %w", err)
	}
	return &m, nil
}
