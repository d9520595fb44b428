package spmat

import "fmt"

// Triple is a coordinate-format nonzero.
type Triple struct {
	Row, Col int32
	Val      float64
}

// FromTriples builds a CSC matrix from coordinate entries, accumulating
// duplicates with add (nil means ordinary +). The result has sorted,
// duplicate-free columns.
func FromTriples(rows, cols int32, ts []Triple, add func(a, b float64) float64) (*CSC, error) {
	if add == nil {
		add = func(a, b float64) float64 { return a + b }
	}
	for _, t := range ts {
		if t.Row < 0 || t.Row >= rows || t.Col < 0 || t.Col >= cols {
			return nil, fmt.Errorf("spmat: triple (%d,%d) out of range for %dx%d", t.Row, t.Col, rows, cols)
		}
	}
	// Counting pass.
	count := make([]int64, cols+1)
	for _, t := range ts {
		count[t.Col+1]++
	}
	for j := int32(0); j < cols; j++ {
		count[j+1] += count[j]
	}
	rowIdx := make([]int32, len(ts))
	val := make([]float64, len(ts))
	next := append([]int64(nil), count...)
	for _, t := range ts {
		p := next[t.Col]
		rowIdx[p] = t.Row
		val[p] = t.Val
		next[t.Col]++
	}
	m := &CSC{Rows: rows, Cols: cols, ColPtr: count, RowIdx: rowIdx, Val: val, SortedCols: false}
	m.Compact(add)
	return m, nil
}

// Triples returns the stored entries in column-major order.
func (m *CSC) Triples() []Triple {
	out := make([]Triple, 0, m.NNZ())
	for j := int32(0); j < m.Cols; j++ {
		rows, vals := m.Column(j)
		for p := range rows {
			out = append(out, Triple{Row: rows[p], Col: j, Val: vals[p]})
		}
	}
	return out
}

// Identity returns the n×n identity matrix.
func Identity(n int32) *CSC {
	m := &CSC{
		Rows:       n,
		Cols:       n,
		ColPtr:     make([]int64, n+1),
		RowIdx:     make([]int32, n),
		Val:        make([]float64, n),
		SortedCols: true,
	}
	for j := int32(0); j < n; j++ {
		m.ColPtr[j+1] = int64(j + 1)
		m.RowIdx[j] = j
		m.Val[j] = 1
	}
	return m
}

// Dense converts a dense row-major matrix (rows×cols) into CSC, storing only
// nonzero entries. Intended for small test fixtures.
func Dense(rows, cols int32, data []float64) *CSC {
	if int(rows)*int(cols) != len(data) {
		panic(fmt.Sprintf("spmat: Dense got %d values for %dx%d", len(data), rows, cols))
	}
	var ts []Triple
	for i := int32(0); i < rows; i++ {
		for j := int32(0); j < cols; j++ {
			if v := data[int(i)*int(cols)+int(j)]; v != 0 {
				ts = append(ts, Triple{Row: i, Col: j, Val: v})
			}
		}
	}
	m, err := FromTriples(rows, cols, ts, nil)
	if err != nil {
		panic(err)
	}
	return m
}

// ToDense expands the matrix into a dense row-major slice. Intended for small
// test fixtures; duplicates are summed.
func (m *CSC) ToDense() []float64 {
	out := make([]float64, int(m.Rows)*int(m.Cols))
	for j := int32(0); j < m.Cols; j++ {
		rows, vals := m.Column(j)
		for p := range rows {
			out[int(rows[p])*int(m.Cols)+int(j)] += vals[p]
		}
	}
	return out
}
