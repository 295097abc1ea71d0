package discovery

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"patchindex/internal/vector"
)

func intVec(vals ...int64) *vector.Vector {
	v := vector.New(vector.Int64, len(vals))
	for _, x := range vals {
		v.AppendInt64(x)
	}
	return v
}

func intVecWithNulls(vals []int64, nulls []int) *vector.Vector {
	isNull := map[int]bool{}
	for _, n := range nulls {
		isNull[n] = true
	}
	v := vector.New(vector.Int64, len(vals))
	for i, x := range vals {
		if isNull[i] {
			v.AppendNull()
		} else {
			v.AppendInt64(x)
		}
	}
	return v
}

func TestDiscoverNUCPaperExample(t *testing.T) {
	// Figure 2 of the paper: values 3 1 3 6 8 2 9 6 with duplicates 3 and 6.
	col := intVec(3, 1, 3, 6, 8, 2, 9, 6)
	res := DiscoverNUC(col)
	want := []uint64{0, 2, 3, 7} // all occurrences of 3 and 6
	if len(res.Patches) != len(want) {
		t.Fatalf("patches = %v, want %v", res.Patches, want)
	}
	for i := range want {
		if res.Patches[i] != want[i] {
			t.Fatalf("patches = %v, want %v", res.Patches, want)
		}
	}
	if res.ExceptionRate() != 0.5 {
		t.Errorf("rate = %v, want 0.5", res.ExceptionRate())
	}
	if !res.Qualifies(0.5) || res.Qualifies(0.49) {
		t.Error("threshold classification wrong")
	}
}

func TestDiscoverNUCAllUnique(t *testing.T) {
	res := DiscoverNUC(intVec(5, 1, 9, 3))
	if len(res.Patches) != 0 {
		t.Errorf("unique column has patches: %v", res.Patches)
	}
}

func TestDiscoverNUCAllSame(t *testing.T) {
	res := DiscoverNUC(intVec(7, 7, 7))
	if len(res.Patches) != 3 {
		t.Errorf("patches = %v, want all rows", res.Patches)
	}
}

func TestDiscoverNUCNulls(t *testing.T) {
	// NULLs are always patches; non-null uniqueness unaffected.
	col := intVecWithNulls([]int64{1, 0, 2, 0, 3}, []int{1, 3})
	res := DiscoverNUC(col)
	want := []uint64{1, 3}
	if len(res.Patches) != 2 || res.Patches[0] != want[0] || res.Patches[1] != want[1] {
		t.Errorf("patches = %v, want %v", res.Patches, want)
	}
	if err := VerifyNUC(col, res.Patches); err != nil {
		t.Error(err)
	}
}

func TestDiscoverNUCStrings(t *testing.T) {
	v := vector.New(vector.String, 0)
	for _, s := range []string{"a", "b", "a", "c"} {
		v.AppendString(s)
	}
	res := DiscoverNUC(v)
	if len(res.Patches) != 2 || res.Patches[0] != 0 || res.Patches[1] != 2 {
		t.Errorf("patches = %v", res.Patches)
	}
}

// TestDiscoverNUCProperty: the result must satisfy NUC1+NUC2 and be minimal
// (exactly the rows whose value occurs more than once, plus NULLs).
func TestDiscoverNUCProperty(t *testing.T) {
	f := func(raw []uint8, nullsRaw []uint8) bool {
		vals := make([]int64, len(raw))
		for i, r := range raw {
			vals[i] = int64(r % 32) // force collisions
		}
		var nulls []int
		for _, n := range nullsRaw {
			if len(vals) > 0 {
				nulls = append(nulls, int(n)%len(vals))
			}
		}
		col := intVecWithNulls(vals, nulls)
		res := DiscoverNUC(col)
		if err := VerifyNUC(col, res.Patches); err != nil {
			t.Logf("verify failed: %v", err)
			return false
		}
		// Minimality: every patch row is justified (NULL or duplicated value).
		counts := map[int64]int{}
		for i := 0; i < col.Len(); i++ {
			if !col.IsNull(i) {
				counts[col.I64[i]]++
			}
		}
		inPatch := map[uint64]bool{}
		for _, p := range res.Patches {
			inPatch[p] = true
		}
		for i := 0; i < col.Len(); i++ {
			justified := col.IsNull(i) || counts[col.I64[i]] > 1
			if inPatch[uint64(i)] != justified {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestDiscoverNSCPaperExample(t *testing.T) {
	// Figure 2: values 1 2 4 4 3 7 9 8 — excluding two rows suffices.
	col := intVec(1, 2, 4, 4, 3, 7, 9, 8)
	res := DiscoverNSC(col, false)
	if len(res.Patches) != 2 {
		t.Fatalf("patches = %v, want cardinality 2", res.Patches)
	}
	if err := VerifyNSC(col, res.Patches, false); err != nil {
		t.Error(err)
	}
	if res.ExceptionRate() != 0.25 {
		t.Errorf("rate = %v, want 0.25", res.ExceptionRate())
	}
}

func TestDiscoverNSCSorted(t *testing.T) {
	res := DiscoverNSC(intVec(1, 2, 2, 3, 10), false)
	if len(res.Patches) != 0 {
		t.Errorf("sorted column has patches: %v", res.Patches)
	}
}

func TestDiscoverNSCReverse(t *testing.T) {
	col := intVec(5, 4, 3, 2, 1)
	res := DiscoverNSC(col, false)
	// Longest non-decreasing subsequence of a strictly decreasing sequence
	// has length 1: four patches.
	if len(res.Patches) != 4 {
		t.Errorf("patches = %v, want 4", res.Patches)
	}
	// Descending discovery finds it perfectly sorted.
	resDesc := DiscoverNSC(col, true)
	if len(resDesc.Patches) != 0 {
		t.Errorf("descending discovery found patches: %v", resDesc.Patches)
	}
}

func TestDiscoverNSCNulls(t *testing.T) {
	col := intVecWithNulls([]int64{1, 0, 2, 3}, []int{1})
	res := DiscoverNSC(col, false)
	if len(res.Patches) != 1 || res.Patches[0] != 1 {
		t.Errorf("patches = %v, want [1]", res.Patches)
	}
	if err := VerifyNSC(col, res.Patches, false); err != nil {
		t.Error(err)
	}
}

func TestDiscoverNSCEmpty(t *testing.T) {
	res := DiscoverNSC(intVec(), false)
	if len(res.Patches) != 0 || res.NumRows != 0 {
		t.Error("empty column should have no patches")
	}
	if res.ExceptionRate() != 0 {
		t.Error("rate of empty column is 0")
	}
}

// bruteLNDS computes the longest non-decreasing subsequence length in O(n²).
func bruteLNDS(vals []int64) int {
	n := len(vals)
	if n == 0 {
		return 0
	}
	best := make([]int, n)
	out := 0
	for i := 0; i < n; i++ {
		best[i] = 1
		for j := 0; j < i; j++ {
			if vals[j] <= vals[i] && best[j]+1 > best[i] {
				best[i] = best[j] + 1
			}
		}
		if best[i] > out {
			out = best[i]
		}
	}
	return out
}

// TestDiscoverNSCMinimality: |patches| must equal n − LNDS(n) (minimal set),
// and the remaining rows must be sorted.
func TestDiscoverNSCMinimality(t *testing.T) {
	f := func(raw []uint8) bool {
		vals := make([]int64, len(raw))
		for i, r := range raw {
			vals[i] = int64(r % 64)
		}
		col := intVec(vals...)
		res := DiscoverNSC(col, false)
		if err := VerifyNSC(col, res.Patches, false); err != nil {
			return false
		}
		return len(res.Patches) == len(vals)-bruteLNDS(vals)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestLongestSortedSubsequenceLength(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		n := rng.Intn(60)
		vals := make([]int64, n)
		for i := range vals {
			vals[i] = int64(rng.Intn(20))
		}
		col := intVec(vals...)
		if got, want := LongestSortedSubsequenceLength(col, false), bruteLNDS(vals); got != want {
			t.Fatalf("LNDS(%v) = %d, want %d", vals, got, want)
		}
	}
}

func TestLongestSortedSubsequenceDescending(t *testing.T) {
	col := intVec(9, 7, 8, 5, 3)
	if got := LongestSortedSubsequenceLength(col, true); got != 4 {
		t.Errorf("descending LNDS = %d, want 4 (9 8 5 3 or 9 7 5 3)", got)
	}
}

func TestVerifyNUCDetectsViolations(t *testing.T) {
	col := intVec(1, 1, 2)
	if err := VerifyNUC(col, nil); err == nil {
		t.Error("duplicates without patches must fail NUC1")
	}
	// Excluding only one occurrence of a duplicate violates NUC2.
	if err := VerifyNUC(col, []uint64{0}); err == nil {
		t.Error("partial duplicate exclusion must fail NUC2")
	}
	if err := VerifyNUC(col, []uint64{0, 1}); err != nil {
		t.Errorf("full exclusion should pass: %v", err)
	}
	nullCol := intVecWithNulls([]int64{1, 0}, []int{1})
	if err := VerifyNUC(nullCol, nil); err == nil {
		t.Error("unpatched NULL must fail")
	}
}

func TestVerifyNSCDetectsViolations(t *testing.T) {
	col := intVec(2, 1, 3)
	if err := VerifyNSC(col, nil, false); err == nil {
		t.Error("unsorted without patches must fail")
	}
	if err := VerifyNSC(col, []uint64{0}, false); err != nil {
		t.Errorf("excluding row 0 leaves 1,3 sorted: %v", err)
	}
	nullCol := intVecWithNulls([]int64{1, 0, 2}, []int{1})
	if err := VerifyNSC(nullCol, nil, false); err == nil {
		t.Error("unpatched NULL must fail")
	}
}

func TestNUCDiscoverySQLShape(t *testing.T) {
	q := NUCDiscoverySQL("tab", "c")
	for _, frag := range []string{"select tab.tid from tab", "left outer join", "group by c", "having count(*) > 1", "tab.c is null"} {
		if !strings.Contains(q, frag) {
			t.Errorf("discovery SQL missing %q:\n%s", frag, q)
		}
	}
}

func TestFloatAndBoolEncoding(t *testing.T) {
	fv := vector.New(vector.Float64, 0)
	fv.AppendFloat64(1.5)
	fv.AppendFloat64(1.5)
	fv.AppendFloat64(2.5)
	res := DiscoverNUC(fv)
	if len(res.Patches) != 2 {
		t.Errorf("float dups: %v", res.Patches)
	}
	bv := vector.New(vector.Bool, 0)
	bv.AppendBool(true)
	bv.AppendBool(false)
	bv.AppendBool(true)
	res = DiscoverNUC(bv)
	if len(res.Patches) != 2 {
		t.Errorf("bool dups: %v", res.Patches)
	}
}

// TestTypedKeyMatchesEncodedKey: discovery with the typed uint64 key finds
// the same patches as keying by the value's 8-byte image as a string,
// including floats whose bits differ but which compare equal (±0) or never
// equal (NaN payloads).
func TestTypedKeyMatchesEncodedKey(t *testing.T) {
	encoded := func(v *vector.Vector, i int) string {
		switch v.Typ {
		case vector.Float64:
			return string(binary.LittleEndian.AppendUint64(nil, math.Float64bits(v.F64[i])))
		case vector.Bool:
			return fmt.Sprint(v.B[i])
		default:
			return string(binary.LittleEndian.AppendUint64(nil, uint64(v.I64[i])))
		}
	}
	floats := []float64{0, math.Copysign(0, -1), math.Float64frombits(0x7ff8000000000001),
		math.Float64frombits(0x7ff8000000000002), 2.5}
	rng := rand.New(rand.NewSource(5))
	for _, typ := range []vector.Type{vector.Int64, vector.Float64, vector.Date, vector.Bool} {
		col := vector.New(typ, 400)
		for i := 0; i < 400; i++ {
			switch {
			case i%53 == 0:
				col.AppendNull()
			case typ == vector.Float64 && rng.Intn(3) == 0:
				col.AppendFloat64(floats[rng.Intn(len(floats))])
			case typ == vector.Float64:
				col.AppendFloat64(float64(rng.Intn(800)) / 2)
			case typ == vector.Bool:
				col.AppendBool(i < 3)
			default:
				col.AppendInt64(int64(rng.Intn(800)))
			}
		}
		got, want := DiscoverNUC(col), discoverNUC(col, encoded)
		if fmt.Sprint(got.Patches) != fmt.Sprint(want.Patches) {
			t.Errorf("%v: typed key %v, encoded key %v", typ, got.Patches, want.Patches)
		}
		if err := VerifyNUC(col, got.Patches); err != nil {
			t.Errorf("%v: %v", typ, err)
		}
	}
}
