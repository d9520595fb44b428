package spmat

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestTransposeSmall(t *testing.T) {
	m := Dense(2, 3, []float64{1, 2, 0, 0, 3, 4})
	tr := Transpose(m)
	if tr.Rows != 3 || tr.Cols != 2 {
		t.Fatalf("shape %dx%d", tr.Rows, tr.Cols)
	}
	want := Dense(3, 2, []float64{1, 0, 2, 3, 0, 4})
	if !Equal(tr, want) {
		t.Error("transpose values wrong")
	}
	if !tr.SortedCols {
		t.Error("transpose should produce sorted columns")
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestTransposeInvolution(t *testing.T) {
	m := randomCSC(t, 50, 37, 0.08, 11)
	tt := Transpose(Transpose(m))
	if !Equal(m, tt) {
		t.Error("transpose twice is not identity")
	}
}

func TestTransposeOfUnsorted(t *testing.T) {
	m := randomCSC(t, 30, 30, 0.1, 12)
	un := m.Clone()
	// Reverse each column to make it unsorted.
	for j := int32(0); j < un.Cols; j++ {
		lo, hi := un.ColPtr[j], un.ColPtr[j+1]
		for a, b := lo, hi-1; a < b; a, b = a+1, b-1 {
			un.RowIdx[a], un.RowIdx[b] = un.RowIdx[b], un.RowIdx[a]
			un.Val[a], un.Val[b] = un.Val[b], un.Val[a]
		}
	}
	un.SortedCols = false
	tr := Transpose(un)
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if !Equal(tr, Transpose(m)) {
		t.Error("transpose of unsorted matrix differs")
	}
}

func TestColRange(t *testing.T) {
	m := randomCSC(t, 20, 10, 0.3, 4)
	sub := ColRange(m, 3, 7)
	if sub.Cols != 4 || sub.Rows != 20 {
		t.Fatalf("shape %v", sub)
	}
	for j := int32(0); j < 4; j++ {
		for i := int32(0); i < 20; i++ {
			if sub.At(i, j) != m.At(i, j+3) {
				t.Fatalf("mismatch at (%d,%d)", i, j)
			}
		}
	}
	if err := sub.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestColSelect(t *testing.T) {
	m := randomCSC(t, 15, 8, 0.4, 5)
	sel := ColSelect(m, []int32{7, 0, 3})
	if sel.Cols != 3 {
		t.Fatalf("cols=%d", sel.Cols)
	}
	for i := int32(0); i < 15; i++ {
		if sel.At(i, 0) != m.At(i, 7) || sel.At(i, 1) != m.At(i, 0) || sel.At(i, 2) != m.At(i, 3) {
			t.Fatalf("gather mismatch at row %d", i)
		}
	}
}

func TestRowRange(t *testing.T) {
	m := randomCSC(t, 20, 10, 0.3, 6)
	sub := RowRange(m, 5, 12)
	if sub.Rows != 7 {
		t.Fatalf("rows=%d", sub.Rows)
	}
	for i := int32(0); i < 7; i++ {
		for j := int32(0); j < 10; j++ {
			if sub.At(i, j) != m.At(i+5, j) {
				t.Fatalf("mismatch at (%d,%d)", i, j)
			}
		}
	}
	if err := sub.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestHCatInvertsColSplit(t *testing.T) {
	m := randomCSC(t, 25, 13, 0.2, 7)
	parts := ColSplit(m, 4)
	back := HCat(parts)
	if !Equal(m, back) {
		t.Error("HCat(ColSplit) is not identity")
	}
}

func TestVCatStacks(t *testing.T) {
	a := Dense(2, 2, []float64{1, 2, 3, 4})
	b := Dense(1, 2, []float64{5, 6})
	v := VCat([]*CSC{a, b})
	want := Dense(3, 2, []float64{1, 2, 3, 4, 5, 6})
	if !Equal(v, want) {
		t.Error("VCat wrong")
	}
	if !v.SortedCols {
		t.Error("VCat of sorted parts should stay sorted")
	}
}

func TestVCatInvertsRowSplit(t *testing.T) {
	m := randomCSC(t, 23, 9, 0.25, 8)
	bounds := PartBounds(m.Rows, 3)
	parts := make([]*CSC, 3)
	for i := range parts {
		parts[i] = RowRange(m, bounds[i], bounds[i+1])
	}
	if !Equal(m, VCat(parts)) {
		t.Error("VCat(RowRange parts) is not identity")
	}
}

func TestAddElementwise(t *testing.T) {
	a := Dense(2, 2, []float64{1, 0, 2, 3})
	b := Dense(2, 2, []float64{4, 5, 0, -3})
	s := Add(a, b, nil)
	want := Dense(2, 2, []float64{5, 5, 2, 0})
	// Add keeps the explicit zero at (1,1): compare values pointwise.
	for i := int32(0); i < 2; i++ {
		for j := int32(0); j < 2; j++ {
			if s.At(i, j) != want.At(i, j) {
				t.Errorf("(%d,%d)=%v want %v", i, j, s.At(i, j), want.At(i, j))
			}
		}
	}
}

func TestMask(t *testing.T) {
	m := Dense(3, 3, []float64{1, 2, 3, 4, 5, 6, 7, 8, 9})
	mask := Dense(3, 3, []float64{1, 0, 0, 0, 1, 0, 0, 0, 1})
	got := Mask(m, mask)
	if got.NNZ() != 3 {
		t.Fatalf("nnz=%d, want 3", got.NNZ())
	}
	if got.At(0, 0) != 1 || got.At(1, 1) != 5 || got.At(2, 2) != 9 {
		t.Error("mask kept wrong values")
	}
	if got.Sum() != 15 {
		t.Errorf("Sum=%v, want 15", got.Sum())
	}
}

func TestScaleMapFilter(t *testing.T) {
	m := Dense(2, 2, []float64{1, 2, 3, 4})
	m.Scale(2)
	if m.At(1, 1) != 8 {
		t.Errorf("Scale: got %v", m.At(1, 1))
	}
	m.Map(func(v float64) float64 { return v - 2 })
	if m.At(0, 0) != 0 {
		t.Errorf("Map: got %v", m.At(0, 0))
	}
	m.DropZeros()
	if m.NNZ() != 3 {
		t.Errorf("DropZeros: nnz=%d, want 3", m.NNZ())
	}
	m.Filter(func(r, c int32, v float64) bool { return r == c })
	if m.NNZ() != 1 || m.At(1, 1) != 6 {
		t.Errorf("Filter: %v", m)
	}
}

func TestPartBounds(t *testing.T) {
	b := PartBounds(10, 3)
	want := []int32{0, 4, 7, 10}
	for i := range want {
		if b[i] != want[i] {
			t.Fatalf("bounds=%v, want %v", b, want)
		}
	}
	// All items covered exactly once for a variety of shapes.
	for _, n := range []int32{0, 1, 7, 64, 100} {
		for _, p := range []int{1, 2, 3, 7, 16} {
			bb := PartBounds(n, p)
			if bb[0] != 0 || bb[p] != n {
				t.Fatalf("PartBounds(%d,%d)=%v", n, p, bb)
			}
			for i := 0; i < p; i++ {
				if bb[i+1] < bb[i] {
					t.Fatalf("PartBounds(%d,%d) not monotone: %v", n, p, bb)
				}
				if d := (bb[i+1] - bb[i]) - n/int32(p); d < 0 || d > 1 {
					t.Fatalf("PartBounds(%d,%d) unbalanced: %v", n, p, bb)
				}
			}
		}
	}
}

func TestPartOf(t *testing.T) {
	b := PartBounds(100, 7)
	for i := int32(0); i < 100; i++ {
		p := PartOf(b, i)
		if i < b[p] || i >= b[p+1] {
			t.Fatalf("PartOf(%d)=%d but range is [%d,%d)", i, p, b[p], b[p+1])
		}
	}
}

func TestCyclicColsPartition(t *testing.T) {
	lists := CyclicCols(20, 3, 2)
	seen := make(map[int32]int)
	for p, l := range lists {
		for _, c := range l {
			seen[c]++
			if want := (int(c) / 2) % 3; want != p {
				t.Fatalf("column %d assigned to %d, want %d", c, p, want)
			}
		}
	}
	if len(seen) != 20 {
		t.Fatalf("only %d columns covered", len(seen))
	}
}

// Property: ColSplit then HCat is identity for random shapes.
func TestSplitConcatProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows := int32(rng.Intn(30) + 1)
		cols := int32(rng.Intn(30) + 1)
		parts := rng.Intn(5) + 1
		m := randomCSC(t, rows, cols, 0.2, seed)
		return Equal(m, HCat(ColSplit(m, parts)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: transpose distributes over column selection of disjoint ranges.
func TestTransposePreservesNNZProperty(t *testing.T) {
	f := func(seed int64) bool {
		m := randomCSC(t, 40, 40, 0.1, seed)
		return Transpose(m).NNZ() == m.NNZ()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}
