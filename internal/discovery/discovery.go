// Package discovery implements the approximate-constraint discovery methods
// of Section IV: nearly unique columns (NUC) via a duplicate-detecting
// aggregation, and nearly sorted columns (NSC) via the longest sorted
// subsequence algorithm. Both return the minimal set of patches P_c in
// ascending row-id order, ready to be appended to a PatchIndex. NULL values
// are always assigned to the set of patches.
package discovery

import (
	"fmt"
	"sort"

	"patchindex/internal/vector"
)

// Result is the outcome of discovering one constraint on one partition.
type Result struct {
	// Patches holds the partition-local row ids of P_c, ascending.
	Patches []uint64
	// NumRows is the number of rows examined.
	NumRows int
}

// ExceptionRate returns |P_c|/|R| for the partition.
func (r Result) ExceptionRate() float64 {
	if r.NumRows == 0 {
		return 0
	}
	return float64(len(r.Patches)) / float64(r.NumRows)
}

// Qualifies reports whether the column satisfies the constraint under the
// given threshold (condition NUC3 / NSC2).
func (r Result) Qualifies(threshold float64) bool {
	return r.ExceptionRate() <= threshold
}

// DiscoverNUC computes the minimal set of patches that makes column values
// unique (Definition III.4). The set consists of *all occurrences* of every
// duplicated value — required by condition (NUC2), which demands that the
// values of R_P and R_{\P} do not intersect — plus all NULL rows. This is
// the hash-based equivalent of the paper's SQL discovery query (group by
// with count(*) > 1, outer-joined back to the table).
func DiscoverNUC(col *vector.Vector) Result {
	if FixedWidthKey(col.Typ) {
		return discoverNUC(col, Key64)
	}
	return discoverNUC(col, StringKey)
}

func discoverNUC[K comparable](col *vector.Vector, key KeyFunc[K]) Result {
	counts := make(map[K]int, col.Len())
	countInto(counts, col, key)
	return Result{Patches: duplicateRows(col, key, counts), NumRows: col.Len()}
}

// countInto adds the occurrences of every non-NULL value of col to counts.
func countInto[K comparable](counts map[K]int, col *vector.Vector, key KeyFunc[K]) {
	for i, n := 0, col.Len(); i < n; i++ {
		if !col.IsNull(i) {
			counts[key(col, i)]++
		}
	}
}

// duplicateRows lists the rows of col whose value occurs more than once
// according to counts, plus every NULL row, ascending.
func duplicateRows[K comparable](col *vector.Vector, key KeyFunc[K], counts map[K]int) []uint64 {
	var patches []uint64
	for i, n := 0, col.Len(); i < n; i++ {
		if col.IsNull(i) || counts[key(col, i)] > 1 {
			patches = append(patches, uint64(i))
		}
	}
	return patches
}

// DiscoverNSC computes a minimal set of patches whose exclusion leaves the
// column sorted under the order relation (Definition III.5): non-decreasing
// when descending is false, non-increasing otherwise. It runs the longest
// sorted subsequence algorithm (Fredman 1975): for each element a binary
// search over the tails of the best subsequences found so far, O(n log n)
// overall. The returned patches are the inverted subsequence (rows *not* in
// the longest sorted subsequence) plus all NULL rows.
func DiscoverNSC(col *vector.Vector, descending bool) Result {
	n := col.Len()
	// tails[k] = index of the smallest-tail sorted subsequence of length k+1.
	tails := make([]int, 0, 64)
	prev := make([]int32, n) // predecessor links for reconstruction
	for i := range prev {
		prev[i] = -1
	}
	cmp := func(a, b int) int {
		c := col.Compare(a, col, b)
		if descending {
			return -c
		}
		return c
	}
	for i := 0; i < n; i++ {
		if col.IsNull(i) {
			continue
		}
		// Find the first tail whose value is strictly greater than col[i];
		// using > (not >=) keeps duplicates inside the subsequence, matching
		// the non-strict order relation.
		lo := sort.Search(len(tails), func(k int) bool { return cmp(tails[k], i) > 0 })
		if lo > 0 {
			prev[i] = int32(tails[lo-1])
		}
		if lo == len(tails) {
			tails = append(tails, i)
		} else {
			tails[lo] = i
		}
	}
	inLSS := make([]bool, n)
	if len(tails) > 0 {
		for at := int32(tails[len(tails)-1]); at >= 0; at = prev[at] {
			inLSS[at] = true
		}
	}
	patches := make([]uint64, 0, n-len(tails))
	for i := 0; i < n; i++ {
		if !inLSS[i] {
			patches = append(patches, uint64(i))
		}
	}
	return Result{Patches: patches, NumRows: n}
}

// LongestSortedSubsequenceLength returns only the length of the longest
// non-decreasing (or non-increasing) subsequence, skipping NULLs. Exposed
// for advisory estimation without materializing patches.
func LongestSortedSubsequenceLength(col *vector.Vector, descending bool) int {
	n := col.Len()
	tails := make([]int, 0, 64)
	cmp := func(a, b int) int {
		c := col.Compare(a, col, b)
		if descending {
			return -c
		}
		return c
	}
	for i := 0; i < n; i++ {
		if col.IsNull(i) {
			continue
		}
		lo := sort.Search(len(tails), func(k int) bool { return cmp(tails[k], i) > 0 })
		if lo == len(tails) {
			tails = append(tails, i)
		} else {
			tails[lo] = i
		}
	}
	return len(tails)
}

// VerifyNUC checks conditions (NUC1) and (NUC2) for a proposed patch set:
// the non-patch values must be unique and must not intersect the patch
// values. Used by tests and by the WAL replay sanity check.
func VerifyNUC(col *vector.Vector, patches []uint64) error {
	if FixedWidthKey(col.Typ) {
		return verifyNUC(col, patches, Key64)
	}
	return verifyNUC(col, patches, StringKey)
}

func verifyNUC[K comparable](col *vector.Vector, patches []uint64, key KeyFunc[K]) error {
	isPatch := make(map[uint64]bool, len(patches))
	for _, p := range patches {
		isPatch[p] = true
	}
	n := col.Len()
	seen := make(map[K]bool, n-len(patches))
	patchVals := make(map[K]bool, len(patches))
	for i := 0; i < n; i++ {
		if col.IsNull(i) {
			if !isPatch[uint64(i)] {
				return fmt.Errorf("discovery: NULL at row %d is not a patch", i)
			}
			continue
		}
		k := key(col, i)
		if isPatch[uint64(i)] {
			patchVals[k] = true
			continue
		}
		if seen[k] {
			return fmt.Errorf("discovery: NUC1 violated: duplicate non-patch value at row %d", i)
		}
		seen[k] = true
	}
	for v := range patchVals {
		if seen[v] {
			return fmt.Errorf("discovery: NUC2 violated: patch value also occurs outside patches")
		}
	}
	return nil
}

// VerifyNSC checks condition (NSC1) for a proposed patch set: the non-patch
// values must be sorted in row-id order under the order relation.
func VerifyNSC(col *vector.Vector, patches []uint64, descending bool) error {
	isPatch := make(map[uint64]bool, len(patches))
	for _, p := range patches {
		isPatch[p] = true
	}
	last := -1
	n := col.Len()
	for i := 0; i < n; i++ {
		if isPatch[uint64(i)] {
			continue
		}
		if col.IsNull(i) {
			return fmt.Errorf("discovery: NULL at row %d is not a patch", i)
		}
		if last >= 0 {
			c := col.Compare(last, col, i)
			if descending {
				c = -c
			}
			if c > 0 {
				return fmt.Errorf("discovery: NSC1 violated between rows %d and %d", last, i)
			}
		}
		last = i
	}
	return nil
}
