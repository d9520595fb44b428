package localmm

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/semiring"
	"repro/internal/spmat"
)

// pairSorter is the interface-based column sort sortColumnSlices replaced,
// kept as its reference.
type pairSorter struct {
	rows []int32
	vals []float64
}

func (s pairSorter) Len() int           { return len(s.rows) }
func (s pairSorter) Less(i, j int) bool { return s.rows[i] < s.rows[j] }
func (s pairSorter) Swap(i, j int) {
	s.rows[i], s.rows[j] = s.rows[j], s.rows[i]
	s.vals[i], s.vals[j] = s.vals[j], s.vals[i]
}

// TestSortColumnSlicesMatchesSortSort checks the typed column sort against
// sort.Sort on columns of every length from 0 to 300 (across the insertion
// cutoff): already sorted, reversed, and random distinct rows drawn up to
// math.MaxInt32, with one scratch reused throughout.
func TestSortColumnSlicesMatchesSortSort(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var s sortScratch
	for n := 0; n <= 300; n++ {
		seen := make(map[int32]bool, n)
		random := make([]int32, 0, n)
		for len(random) < n {
			r := rng.Int31n(math.MaxInt32)
			if n%7 == 0 {
				r = math.MaxInt32 - rng.Int31n(int32(2*n+1))
			}
			if !seen[r] {
				seen[r] = true
				random = append(random, r)
			}
		}
		sorted := slices.Clone(random)
		slices.Sort(sorted)
		reversed := slices.Clone(sorted)
		slices.Reverse(reversed)
		for name, rows := range map[string][]int32{"random": random, "sorted": sorted, "reversed": reversed} {
			vals := make([]float64, n)
			for p := range vals {
				vals[p] = rng.NormFloat64()
			}
			wantRows, wantVals := slices.Clone(rows), slices.Clone(vals)
			sort.Sort(pairSorter{rows: wantRows, vals: wantVals})
			gotRows, gotVals := slices.Clone(rows), slices.Clone(vals)
			sortColumnSlices(gotRows, gotVals, &s)
			if !slices.Equal(gotRows, wantRows) || !slices.Equal(gotVals, wantVals) {
				t.Fatalf("n=%d %s: typed sort differs from sort.Sort", n, name)
			}
		}
	}
}

// TestKernelOutputsHaveNoSlack: every serial kernel and merger returns entry
// arrays sized exactly to their nonzeros. Spare capacity is live heap the
// memory model does not count.
func TestKernelOutputsHaveNoSlack(t *testing.T) {
	sr := semiring.PlusTimes()
	a := randomMat(t, 120, 120, 1500, 41)
	b := randomMat(t, 120, 120, 1500, 42)
	unsorted := HashSpGEMM(b, a, sr)
	outs := map[string]*spmat.CSC{
		"HashSpGEMM":              HashSpGEMM(a, b, sr),
		"HashSpGEMMSorted":        HashSpGEMMSorted(a, b, sr),
		"HybridSpGEMM":            HybridSpGEMM(a, b, sr),
		"HeapSpGEMM":              HeapSpGEMM(a, b, sr),
		"HashMerge/unsorted":      HashMerge([]*spmat.CSC{a, b, unsorted}, sr, false),
		"HashMerge/sorted":        HashMerge([]*spmat.CSC{a, b, unsorted}, sr, true),
		"HashMerge/single":        HashMerge([]*spmat.CSC{unsorted}, sr, false),
		"HashMerge/single-sorted": HashMerge([]*spmat.CSC{unsorted}, sr, true),
		"HeapMerge":               HeapMerge([]*spmat.CSC{a, b, unsorted}, sr),
		"HashSpGEMM/empty":        HashSpGEMM(spmat.New(120, 120), b, sr),
	}
	for name, c := range outs {
		if cap(c.RowIdx) != len(c.RowIdx) || cap(c.Val) != len(c.Val) {
			t.Errorf("%s: RowIdx len %d cap %d, Val len %d cap %d", name,
				len(c.RowIdx), cap(c.RowIdx), len(c.Val), cap(c.Val))
		}
		if err := c.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}
