package localmm

import (
	"testing"
	"testing/quick"

	"math/rand"

	"repro/internal/semiring"
	"repro/internal/spmat"
)

func TestMaskedMatchesMultiplyThenMask(t *testing.T) {
	a := randomMat(t, 30, 30, 200, 80)
	b := randomMat(t, 30, 30, 200, 81)
	mask := randomMat(t, 30, 30, 120, 82)
	sr := semiring.PlusTimes()
	want := spmat.Mask(Multiply(a, b, sr), mask)
	got := MaskedSpGEMM(a, b, mask, sr)
	got.DropZeros() // Mask-by-reference drops masked positions never written
	want.DropZeros()
	if !spmat.Equal(got, want) {
		t.Error("masked SpGEMM differs from multiply-then-mask")
	}
}

func TestMaskedEmptyMask(t *testing.T) {
	a := randomMat(t, 10, 10, 40, 83)
	got := MaskedSpGEMM(a, a, spmat.New(10, 10), semiring.PlusTimes())
	if got.NNZ() != 0 {
		t.Errorf("empty mask produced %d entries", got.NNZ())
	}
}

func TestMaskedShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("mask shape mismatch not caught")
		}
	}()
	MaskedSpGEMM(spmat.New(3, 3), spmat.New(3, 3), spmat.New(4, 3), semiring.PlusTimes())
}

func TestMaskedTriangleIdentity(t *testing.T) {
	// Masked count on K4: Σ((L·U) .* L) = 4 triangles.
	var ts []spmat.Triple
	for i := int32(0); i < 4; i++ {
		for j := int32(0); j < 4; j++ {
			if i > j {
				ts = append(ts, spmat.Triple{Row: i, Col: j, Val: 1})
			}
		}
	}
	l, _ := spmat.FromTriples(4, 4, ts, nil)
	u := spmat.Transpose(l)
	masked := MaskedSpGEMM(l, u, l, semiring.PlusTimes())
	if got := int64(masked.Sum() + 0.5); got != 4 {
		t.Errorf("K4 masked count=%d, want 4", got)
	}
}

func TestMaskedProperty(t *testing.T) {
	sr := semiring.PlusTimes()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int32(rng.Intn(20) + 2)
		a := randomMat(t, n, n, rng.Intn(80), seed+1)
		b := randomMat(t, n, n, rng.Intn(80), seed+2)
		mask := randomMat(t, n, n, rng.Intn(50), seed+3)
		want := spmat.Mask(Multiply(a, b, sr), mask)
		got := MaskedSpGEMM(a, b, mask, sr)
		got.DropZeros()
		want.DropZeros()
		return spmat.Equal(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func BenchmarkMaskedVsUnmasked(b *testing.B) {
	a := randomMat(b, 1024, 1024, 20000, 88)
	mask := randomMat(b, 1024, 1024, 5000, 89)
	sr := semiring.PlusTimes()
	b.Run("masked", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			MaskedSpGEMM(a, a, mask, sr)
		}
	})
	b.Run("multiply-then-mask", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			spmat.Mask(HashSpGEMM(a, a, sr), mask)
		}
	})
}
