package discovery

import (
	"math"

	"patchindex/internal/vector"
)

// NUC duplicate detection needs an injective key per column value. The
// fixed-width types key by their 8-byte image — the int64 bits of Int64 and
// Date, the IEEE-754 bits of Float64 (so -0.0 and +0.0, and NaNs with
// different payloads, are distinct values), 0/1 for Bool — held in a
// uint64-keyed map. Strings key by the string itself. Discovery,
// verification and incremental maintenance (package maintain) all use these
// keys, so they agree on what a duplicate is.

// KeyFunc extracts the key of row i of a column.
type KeyFunc[K comparable] func(v *vector.Vector, i int) K

// FixedWidthKey reports whether values of type t key by Key64 (otherwise
// by StringKey).
func FixedWidthKey(t vector.Type) bool { return t != vector.String }

// Key64 is the 8-byte key of row i of a fixed-width column.
func Key64(v *vector.Vector, i int) uint64 {
	switch v.Typ {
	case vector.Float64:
		return math.Float64bits(v.F64[i])
	case vector.Bool:
		if v.B[i] {
			return 1
		}
		return 0
	default:
		return uint64(v.I64[i])
	}
}

// StringKey is the key of row i of a String column.
func StringKey(v *vector.Vector, i int) string { return v.Str[i] }
