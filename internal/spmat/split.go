package spmat

import "fmt"

// PartBounds partitions n items into parts nearly-equal contiguous ranges and
// returns the parts+1 boundaries. The first (n mod parts) ranges get one extra
// item, matching the block distribution used for process grids.
func PartBounds(n int32, parts int) []int32 {
	if parts <= 0 {
		panic(fmt.Sprintf("spmat: PartBounds with %d parts", parts))
	}
	bounds := make([]int32, parts+1)
	base := n / int32(parts)
	extra := n % int32(parts)
	for i := 0; i < parts; i++ {
		bounds[i+1] = bounds[i] + base
		if int32(i) < extra {
			bounds[i+1]++
		}
	}
	return bounds
}

// PartOf returns the index of the range in bounds (as produced by PartBounds)
// that contains item i.
func PartOf(bounds []int32, i int32) int {
	lo, hi := 0, len(bounds)-1
	for lo+1 < hi {
		mid := (lo + hi) / 2
		if bounds[mid] <= i {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// ColSplit splits m into parts matrices of contiguous column ranges
// (Alg 2 line 4 uses this to split D̃ for the fiber AllToAll).
func ColSplit(m *CSC, parts int) []*CSC {
	bounds := PartBounds(m.Cols, parts)
	out := make([]*CSC, parts)
	for i := 0; i < parts; i++ {
		out[i] = ColRange(m, bounds[i], bounds[i+1])
	}
	return out
}

// CyclicCols returns, for each of parts pieces, the list of columns assigned
// to that piece under a block-cyclic distribution with the given block width:
// column c belongs to piece (c/block) mod parts. The paper (Sec. IV-B) uses
// this to split B̃ into batches so that each batch contains l aligned blocks,
// balancing Merge-Fiber load.
func CyclicCols(cols int32, parts int, block int32) [][]int32 {
	if block <= 0 {
		block = 1
	}
	out := make([][]int32, parts)
	for c := int32(0); c < cols; c++ {
		p := int((c / block)) % parts
		out[p] = append(out[p], c)
	}
	return out
}
