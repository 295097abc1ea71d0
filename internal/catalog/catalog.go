// Package catalog maintains the schema objects of the engine: tables and
// PatchIndexes. It is the registry that query planning consults to find
// approximate-constraint information for rewrites.
package catalog

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"patchindex/internal/patch"
	"patchindex/internal/storage"
)

// Catalog is a thread-safe registry of tables and PatchIndexes.
type Catalog struct {
	mu      sync.RWMutex
	tables  map[string]*storage.Table
	indexes map[string]*patch.Index // key: table "." column
	// epoch counts schema mutations (table or index add/drop). Readers that
	// cache derived state, such as the tuner's planned actions, revalidate
	// when the epoch moved under them, so indexes can appear and disappear
	// in the background without stale decisions.
	epoch atomic.Uint64
}

// New creates an empty catalog.
func New() *Catalog {
	return &Catalog{
		tables:  make(map[string]*storage.Table),
		indexes: make(map[string]*patch.Index),
	}
}

// AddTable registers a table; the name must be unused.
func (c *Catalog) AddTable(t *storage.Table) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.tables[t.Name()]; ok {
		return fmt.Errorf("catalog: table %s already exists", t.Name())
	}
	c.tables[t.Name()] = t
	c.epoch.Add(1)
	return nil
}

// Epoch returns the catalog's schema-mutation counter. It increments on
// every table or index registration/removal; equality of two observations
// means no schema object changed in between.
func (c *Catalog) Epoch() uint64 { return c.epoch.Load() }

// Table looks up a table by name.
func (c *Catalog) Table(name string) (*storage.Table, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	t, ok := c.tables[name]
	if !ok {
		return nil, fmt.Errorf("catalog: unknown table %s", name)
	}
	return t, nil
}

// DropTable removes a table and all its PatchIndexes.
func (c *Catalog) DropTable(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.tables[name]; !ok {
		return fmt.Errorf("catalog: unknown table %s", name)
	}
	delete(c.tables, name)
	for key, ix := range c.indexes {
		if ix.Table() == name {
			delete(c.indexes, key)
		}
	}
	c.epoch.Add(1)
	return nil
}

// TableNames returns the sorted names of all tables.
func (c *Catalog) TableNames() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	names := make([]string, 0, len(c.tables))
	for n := range c.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func indexKey(table, column string, constraint patch.Constraint) string {
	return fmt.Sprintf("%s.%s#%d", table, column, constraint)
}

// AddIndex registers a PatchIndex. A single table may hold several
// PatchIndexes on different columns — the design explicitly enables multiple
// (approximate) sort keys per table since the physical tuple order is never
// changed — and a single column may hold one index per constraint kind
// (e.g. nearly unique *and* nearly sorted).
func (c *Catalog) AddIndex(ix *patch.Index) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.tables[ix.Table()]; !ok {
		return fmt.Errorf("catalog: index references unknown table %s", ix.Table())
	}
	key := indexKey(ix.Table(), ix.Column(), ix.Constraint())
	if _, ok := c.indexes[key]; ok {
		return fmt.Errorf("catalog: %s PatchIndex on %s.%s already exists", ix.Constraint(), ix.Table(), ix.Column())
	}
	c.indexes[key] = ix
	c.epoch.Add(1)
	return nil
}

// Index looks up any PatchIndex on table.column (NUC first), or nil.
func (c *Catalog) Index(table, column string) *patch.Index {
	c.mu.RLock()
	defer c.mu.RUnlock()
	for _, constraint := range []patch.Constraint{patch.NearlyUnique, patch.NearlySorted} {
		if ix, ok := c.indexes[indexKey(table, column, constraint)]; ok {
			return ix
		}
	}
	return nil
}

// Lookup returns the PatchIndex on table.column with the given constraint,
// built or not, or nil.
func (c *Catalog) Lookup(table, column string, constraint patch.Constraint) *patch.Index {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.indexes[indexKey(table, column, constraint)]
}

// IndexFor returns the ready PatchIndex on table.column with the requested
// constraint, or nil. Query rewriting only uses fully built indexes.
func (c *Catalog) IndexFor(table, column string, constraint patch.Constraint) *patch.Index {
	ix := c.Lookup(table, column, constraint)
	if ix == nil || !ix.Ready() {
		return nil
	}
	return ix
}

// DropIndex removes every PatchIndex on table.column (any constraint).
func (c *Catalog) DropIndex(table, column string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	dropped := false
	for _, constraint := range []patch.Constraint{patch.NearlyUnique, patch.NearlySorted} {
		key := indexKey(table, column, constraint)
		if _, ok := c.indexes[key]; ok {
			delete(c.indexes, key)
			dropped = true
		}
	}
	if !dropped {
		return fmt.Errorf("catalog: no PatchIndex on %s.%s", table, column)
	}
	c.epoch.Add(1)
	return nil
}

// ZoneMapInfo pairs one table partition/column with its storage zone map
// entry — the introspection view of the planner's partition-pruning input.
type ZoneMapInfo struct {
	Table     string
	Partition int
	Column    string
	Entry     storage.ZoneMapEntry
}

// ZoneMaps returns the zone map entries of every partition and column of the
// named table, partition-major in schema column order.
func (c *Catalog) ZoneMaps(table string) ([]ZoneMapInfo, error) {
	t, err := c.Table(table)
	if err != nil {
		return nil, err
	}
	schema := t.Schema()
	out := make([]ZoneMapInfo, 0, t.NumPartitions()*len(schema.Columns))
	for p := 0; p < t.NumPartitions(); p++ {
		for col, colDef := range schema.Columns {
			out = append(out, ZoneMapInfo{
				Table:     table,
				Partition: p,
				Column:    colDef.Name,
				Entry:     t.ZoneMap(p, col),
			})
		}
	}
	return out, nil
}

// Indexes returns all registered PatchIndexes, sorted by table and column.
func (c *Catalog) Indexes() []*patch.Index {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]*patch.Index, 0, len(c.indexes))
	for _, ix := range c.indexes {
		out = append(out, ix)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Table() != out[j].Table() {
			return out[i].Table() < out[j].Table()
		}
		if out[i].Column() != out[j].Column() {
			return out[i].Column() < out[j].Column()
		}
		return out[i].Constraint() < out[j].Constraint()
	})
	return out
}
