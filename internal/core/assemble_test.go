package core

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/localmm"
	"repro/internal/spmat"
)

// assembleTriples is the coordinate-list assembly that AssembleResults
// replaced: every rank's entries are gathered as global triples and built by
// FromTriples, which sorts each column and sums repeated coordinates. It is
// the reference the direct assembly must reproduce.
func assembleTriples(results []*Result, rows, cols int32) (*spmat.CSC, error) {
	var ts []spmat.Triple
	for _, r := range results {
		if r == nil {
			continue
		}
		for x := int32(0); x < r.C.Cols; x++ {
			rws, vls := r.C.Column(x)
			gc := r.GlobalCols[x]
			for q := range rws {
				ts = append(ts, spmat.Triple{Row: rws[q] + r.RowOffset, Col: gc, Val: vls[q]})
			}
		}
	}
	return spmat.FromTriples(rows, cols, ts, nil)
}

// checkAssembled fails unless got equals want and is canonical: flagged
// sorted, strictly increasing rows in every column, and entry arrays with no
// spare capacity.
func checkAssembled(t *testing.T, name string, got, want *spmat.CSC) {
	t.Helper()
	if !spmat.Equal(got, want) {
		t.Errorf("%s: direct assembly differs from the triple assembly", name)
	}
	if !got.SortedCols {
		t.Errorf("%s: assembled result not flagged sorted", name)
	}
	for j := int32(0); j < got.Cols; j++ {
		rws, _ := got.Column(j)
		for q := 1; q < len(rws); q++ {
			if rws[q] <= rws[q-1] {
				t.Errorf("%s: column %d rows not strictly increasing at %d", name, j, q)
				break
			}
		}
	}
	if cap(got.RowIdx) != len(got.RowIdx) || cap(got.Val) != len(got.Val) {
		t.Errorf("%s: slack capacity: RowIdx %d/%d, Val %d/%d", name,
			len(got.RowIdx), cap(got.RowIdx), len(got.Val), cap(got.Val))
	}
}

// TestAssembleResultsMatchesTriplePath runs the direct assembly against the
// triple reference on real rank results across kernels × formats × staged
// and pipelined schedules × batch counts, with and without a batch hook
// that drops entries and hands back one column reversed (an unsorted piece
// BatchedSUMMA3D must restore).
func TestAssembleResultsMatchesTriplePath(t *testing.T) {
	a := randomRealMat(t, 48, 48, 700, 91)
	b := randomRealMat(t, 48, 48, 700, 92)
	const p, l = 8, 2
	dropAndReverse := func(_ int, _ []int32, c *spmat.CSC) *spmat.CSC {
		out := c.Clone()
		out.Filter(func(i, j int32, _ float64) bool { return (i+j)%3 != 0 })
		for j := int32(0); j < out.Cols; j++ {
			lo, hi := out.ColPtr[j], out.ColPtr[j+1]
			if hi-lo < 2 {
				continue
			}
			for x, y := lo, hi-1; x < y; x, y = x+1, y-1 {
				out.RowIdx[x], out.RowIdx[y] = out.RowIdx[y], out.RowIdx[x]
				out.Val[x], out.Val[y] = out.Val[y], out.Val[x]
			}
			out.SortedCols = false
			break
		}
		return out
	}
	hooks := []struct {
		name string
		hook BatchHook
	}{{"nohook", nil}, {"drop-reverse", dropAndReverse}}
	kernels := []localmm.Kernel{
		localmm.KernelHashUnsorted, localmm.KernelHashSorted,
		localmm.KernelHeap, localmm.KernelHybrid,
	}
	for _, kern := range kernels {
		for _, f := range allFormats {
			for _, pipeline := range []bool{false, true} {
				for batches := 1; batches <= 3; batches++ {
					for _, h := range hooks {
						name := fmt.Sprintf("%v/%v/pipeline=%v/b=%d/%s", kern, f, pipeline, batches, h.name)
						got, results, _ := runDistributed(t, p, l, a, b, Options{
							ForceBatches: batches, Kernel: kern, Format: f, Pipeline: pipeline,
						}, h.hook)
						for r, res := range results {
							if !res.C.SortedCols {
								t.Errorf("%s: rank %d result not sorted", name, r)
							}
						}
						want, err := assembleTriples(results, a.Rows, b.Cols)
						if err != nil {
							t.Fatalf("%s: triple assembly: %v", name, err)
						}
						checkAssembled(t, name, got, want)
					}
				}
			}
		}
	}
}

// TestAssembleResultsRejectsOverlap builds rank results by hand. Disjoint
// row blocks assemble to the triple reference; two results covering the
// same rows of one global column are an error, where the triple path
// silently summed their entries.
func TestAssembleResultsRejectsOverlap(t *testing.T) {
	piece := func(rows int32, cols []int32, ts ...spmat.Triple) *Result {
		c, err := spmat.FromTriples(rows, int32(len(cols)), ts, nil)
		if err != nil {
			t.Fatal(err)
		}
		return &Result{C: c, GlobalCols: cols}
	}
	top := piece(2, []int32{0, 2}, spmat.Triple{Row: 1, Col: 0, Val: 1}, spmat.Triple{Row: 0, Col: 1, Val: 2})
	bottom := piece(2, []int32{2}, spmat.Triple{Row: 0, Col: 0, Val: 3}, spmat.Triple{Row: 1, Col: 0, Val: 4})
	bottom.RowOffset = 2
	// Passed in descending row order: assembly must still order the blocks.
	results := []*Result{bottom, nil, top}
	got, err := AssembleResults(results, 4, 3)
	if err != nil {
		t.Fatalf("disjoint blocks: %v", err)
	}
	want, err := assembleTriples(results, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	checkAssembled(t, "disjoint", got, want)

	dup := piece(2, []int32{1, 2}, spmat.Triple{Row: 0, Col: 1, Val: 5})
	shifted := piece(2, []int32{2}, spmat.Triple{Row: 1, Col: 0, Val: 6})
	shifted.RowOffset = 1
	for _, tc := range []struct {
		name    string
		results []*Result
	}{
		{"same-block", []*Result{top, bottom, dup}},
		{"partial-overlap", []*Result{top, bottom, shifted}},
	} {
		_, err := AssembleResults(tc.results, 4, 3)
		if err == nil || !strings.Contains(err.Error(), "global column 2") {
			t.Errorf("%s: got error %v, want an overlap on global column 2", tc.name, err)
		}
		if _, err := assembleTriples(tc.results, 4, 3); err != nil {
			t.Errorf("%s: triple path rejected what it used to sum: %v", tc.name, err)
		}
	}

	bad := piece(2, []int32{5})
	if _, err := AssembleResults([]*Result{bad}, 4, 3); err == nil {
		t.Error("global column outside the matrix accepted")
	}
	tall := piece(3, []int32{0})
	tall.RowOffset = 2
	if _, err := AssembleResults([]*Result{tall}, 4, 3); err == nil {
		t.Error("row block outside the matrix accepted")
	}
	unsorted := &Result{C: &spmat.CSC{
		Rows: 2, Cols: 1, ColPtr: []int64{0, 2}, RowIdx: []int32{1, 0}, Val: []float64{1, 2},
	}, GlobalCols: []int32{0}}
	if _, err := AssembleResults([]*Result{unsorted}, 4, 3); err == nil {
		t.Error("result column with decreasing rows accepted")
	}
}
