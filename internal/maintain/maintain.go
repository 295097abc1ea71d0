// Package maintain implements incremental PatchIndex maintenance for table
// appends — the "lightweight support for table inserts" the paper names as
// future work. A Maintainer carries auxiliary state per index so that newly
// appended rows are classified without a full table scan:
//
//   - NUC: a value → row map of the current non-patch values plus the set of
//     patch values. An incoming duplicate of a non-patch value turns *both*
//     rows into patches (condition NUC2 demands all occurrences); duplicates
//     of patch values and NULLs become patches directly. The maintained set
//     stays minimal. Fixed-width columns key both maps by the value's 8-byte
//     image (discovery.Key64), strings by the string.
//   - NSC: the last non-patch value per partition. An incoming value that
//     continues the order extends the sorted subsequence; anything else
//     becomes a patch. This greedy rule is correct (NSC1 always holds) but,
//     unlike full re-discovery, not guaranteed minimal — a single huge value
//     can push later values into the patch set. ExceptionRate drift can be
//     detected via Index.ExceptionRate and repaired by re-creating the index.
//
// After a durable restart the engine loads the checkpointed patch sets and
// builds maintainers from them: the NUC maps from one read of the column,
// the NSC state from one value per partition (a 1-row decode when the
// partition is clean on disk). The WAL suffix then replays through
// Set.Append like any other append — nothing is rediscovered.
package maintain

import (
	"fmt"
	"strings"
	"time"

	"patchindex/internal/discovery"
	"patchindex/internal/obs"
	"patchindex/internal/patch"
	"patchindex/internal/storage"
	"patchindex/internal/vector"
)

// rowRef locates a row of a partitioned table: the partition in the high 24
// bits, the partition-local row id in the low 40.
type rowRef uint64

const rowBits = 40

func makeRowRef(part int, row uint64) rowRef { return rowRef(uint64(part)<<rowBits | row) }

func (r rowRef) part() int   { return int(r >> rowBits) }
func (r rowRef) row() uint64 { return uint64(r) & (1<<rowBits - 1) }

// Maintainer incrementally maintains one PatchIndex under appends.
type Maintainer struct {
	table *storage.Table
	ix    *patch.Index
	col   int

	// NUC state (nil for a NSC).
	nuc nucState

	// NSC state: last non-patch value per partition (nil if none yet).
	lastVal []vector.Value
	hasLast []bool
}

// NewMaintainer builds the auxiliary state for an existing index. A NUC
// reads the column once to key every value (the index's patch set says
// which are patch values); a NSC reads one value per partition, the last
// non-patch row, which the patch set locates. Every append afterwards is
// O(rows appended).
func NewMaintainer(table *storage.Table, ix *patch.Index) (*Maintainer, error) {
	if !ix.Ready() {
		return nil, fmt.Errorf("maintain: index %s.%s is not built", ix.Table(), ix.Column())
	}
	if ix.Table() != table.Name() {
		return nil, fmt.Errorf("maintain: index belongs to table %s, not %s", ix.Table(), table.Name())
	}
	col := table.Schema().ColumnIndex(ix.Column())
	if col < 0 {
		return nil, fmt.Errorf("maintain: table %s has no column %s", table.Name(), ix.Column())
	}
	m := &Maintainer{table: table, ix: ix, col: col}
	switch ix.Constraint() {
	case patch.NearlyUnique:
		if discovery.FixedWidthKey(table.Schema().Columns[col].Typ) {
			m.nuc = newNUCMaps(table, ix, col, discovery.Key64)
		} else {
			m.nuc = newNUCMaps(table, ix, col, ownedStringKey)
		}
	case patch.NearlySorted:
		m.lastVal = make([]vector.Value, table.NumPartitions())
		m.hasLast = make([]bool, table.NumPartitions())
		for p := 0; p < table.NumPartitions(); p++ {
			row, ok := lastNonPatch(ix.Partition(p))
			if !ok {
				continue
			}
			v, err := valueAt(table, p, col, row)
			if err != nil {
				return nil, err
			}
			m.lastVal[p], m.hasLast[p] = v, true
		}
	default:
		return nil, fmt.Errorf("maintain: unknown constraint %v", ix.Constraint())
	}
	return m, nil
}

// Index returns the maintained index.
func (m *Maintainer) Index() *patch.Index { return m.ix }

// classify processes the appended column values of one partition, returning
// the patch ids to add (local to the partition) and, for NUC retro-patching,
// pre-existing rows that turned into patches.
func (m *Maintainer) classify(part int, vals *vector.Vector, baseRow uint64) (newIDs []uint64, retro []rowRef) {
	if m.nuc != nil {
		return m.nuc.classify(part, vals, baseRow)
	}
	for i := 0; i < vals.Len(); i++ {
		row := baseRow + uint64(i)
		if vals.IsNull(i) {
			newIDs = append(newIDs, row)
			continue
		}
		v := vals.Value(i)
		if m.hasLast[part] {
			c := v.Compare(m.lastVal[part])
			if m.ix.Descending() {
				c = -c
			}
			if c < 0 {
				newIDs = append(newIDs, row)
				continue
			}
		}
		m.lastVal[part] = v
		m.hasLast[part] = true
	}
	return newIDs, nil
}

// nucState is the NUC maintenance state for one key type.
type nucState interface {
	classify(part int, vals *vector.Vector, baseRow uint64) (newIDs []uint64, retro []rowRef)
}

// nucMaps keys the current non-patch values (to their row) and the patch
// values by K.
type nucMaps[K comparable] struct {
	key       discovery.KeyFunc[K]
	nonPatch  map[K]rowRef
	patchVals map[K]struct{}
}

// ownedStringKey keys a String column by a copy of the value, so the
// long-lived maps do not pin the column's (or a WAL record's) memory.
func ownedStringKey(v *vector.Vector, i int) string { return strings.Clone(v.Str[i]) }

func newNUCMaps[K comparable](table *storage.Table, ix *patch.Index, col int, key discovery.KeyFunc[K]) *nucMaps[K] {
	patches := ix.Cardinality()
	n := &nucMaps[K]{
		key:       key,
		nonPatch:  make(map[K]rowRef, ix.NumRows()-patches),
		patchVals: make(map[K]struct{}, patches),
	}
	for p := 0; p < table.NumPartitions(); p++ {
		v := table.Partition(p).Column(col)
		set := ix.Partition(p)
		for i := 0; i < v.Len(); i++ {
			if v.IsNull(i) {
				continue // NULLs carry no value identity
			}
			if set.Contains(uint64(i)) {
				n.patchVals[key(v, i)] = struct{}{}
			} else {
				n.nonPatch[key(v, i)] = makeRowRef(p, uint64(i))
			}
		}
	}
	return n
}

func (n *nucMaps[K]) classify(part int, vals *vector.Vector, baseRow uint64) (newIDs []uint64, retro []rowRef) {
	for i := 0; i < vals.Len(); i++ {
		row := baseRow + uint64(i)
		if vals.IsNull(i) {
			newIDs = append(newIDs, row)
			continue
		}
		k := n.key(vals, i)
		if _, isPatchVal := n.patchVals[k]; isPatchVal {
			newIDs = append(newIDs, row)
			continue
		}
		if old, exists := n.nonPatch[k]; exists {
			// Condition NUC2: every occurrence of a duplicated value is
			// a patch — including the previously clean one.
			retro = append(retro, old)
			delete(n.nonPatch, k)
			n.patchVals[k] = struct{}{}
			newIDs = append(newIDs, row)
			continue
		}
		n.nonPatch[k] = makeRowRef(part, row)
	}
	return newIDs, retro
}

// lastNonPatch finds the highest row of a partition that is not a patch.
func lastNonPatch(set patch.Set) (int, bool) {
	for r := set.NumRows() - 1; r >= 0; r-- {
		if !set.Contains(uint64(r)) {
			return r, true
		}
	}
	return 0, false
}

// valueAt reads one value of a partition. A column that is only on disk in
// a clean partition is decoded for that one row, bypassing the cache.
func valueAt(t *storage.Table, part, col, row int) (vector.Value, error) {
	if t.ColumnOnDisk(part, col) {
		if seg := t.OpenSegment(part); seg != nil {
			enc, err := seg.ReadColumn(col)
			if err != nil {
				return vector.Value{}, err
			}
			out := vector.New(enc.Typ, 1)
			if err := enc.DecodeRangeInto(out, row, row+1); err != nil {
				return vector.Value{}, err
			}
			return out.Value(0), nil
		}
	}
	return t.Partition(part).Column(col).Value(row), nil
}

// Set is a group of maintainers covering every PatchIndex of one table, so a
// single append updates all of them consistently.
type Set struct {
	table       *storage.Table
	maintainers []*Maintainer

	// Optional metrics (nil-safe: an unwired set records nothing).
	appends      *obs.Counter
	appendNanos  *obs.Histogram
	patchesAdded *obs.Counter
}

// SetMetrics wires maintenance counters into the given registry: appends
// processed, AppendToIndex latency, and patches added (incl. retro-patches).
func (s *Set) SetMetrics(r *obs.Registry) {
	s.appends = r.Counter("maintain_appends_total")
	s.appendNanos = r.Histogram("maintain_append_nanos")
	s.patchesAdded = r.Counter("maintain_patches_added_total")
}

// NewSet builds maintainers for the given indexes of a table.
func NewSet(table *storage.Table, indexes []*patch.Index) (*Set, error) {
	s := &Set{table: table}
	for _, ix := range indexes {
		m, err := NewMaintainer(table, ix)
		if err != nil {
			return nil, err
		}
		s.maintainers = append(s.maintainers, m)
	}
	return s, nil
}

// Append appends whole column vectors to one partition of the table and
// incrementally maintains every covered PatchIndex.
func (s *Set) Append(part int, cols []*vector.Vector) error {
	s.appends.Inc()
	start := time.Now()
	defer s.appendNanos.ObserveSince(start)
	baseRow := uint64(s.table.Partition(part).NumRows())
	if err := s.table.AppendColumns(part, cols); err != nil {
		return err
	}
	newRows := s.table.Partition(part).NumRows()
	for _, m := range s.maintainers {
		vals := cols[positionOf(s.table, m.col, cols)]
		newIDs, retro := m.classify(part, vals, baseRow)
		s.patchesAdded.Add(int64(len(newIDs) + len(retro)))
		// Retroactive patches may hit other partitions; group them.
		perPart := map[int][]uint64{part: newIDs}
		for _, r := range retro {
			perPart[r.part()] = append(perPart[r.part()], r.row())
		}
		for p, ids := range perPart {
			rows := s.table.Partition(p).NumRows()
			if p == part {
				rows = newRows
			}
			if err := m.ix.UpdatePartition(p, ids, rows); err != nil {
				return err
			}
		}
	}
	return nil
}

// positionOf maps a table column position onto the appended column list
// (appends provide one vector per schema column, in schema order).
func positionOf(_ *storage.Table, col int, _ []*vector.Vector) int { return col }
