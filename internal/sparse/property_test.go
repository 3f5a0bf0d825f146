package sparse

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// Property: At agrees with the dense materialization everywhere.
func TestAtMatchesDenseProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r, c := 1+rng.Intn(12), 1+rng.Intn(12)
		a := randomCSR(t, r, c, 0.35, rng)
		d := a.ToDense()
		for i := 0; i < r; i++ {
			for j := 0; j < c; j++ {
				if a.At(i, j) != d.At(i, j) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: the products on a and on its transpose are adjoint:
// ⟨A·X, Y⟩ == ⟨X, Aᵀ·Y⟩.
func TestAdjointProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r, c, k := 2+rng.Intn(8), 2+rng.Intn(8), 1+rng.Intn(4)
		a := randomCSR(t, r, c, 0.4, rng)
		x := randomCSR(t, c, k, 1.0, rng).ToDense()
		y := randomCSR(t, r, k, 1.0, rng).ToDense()
		ax := a.MulDense(x)
		aty := a.Transpose().MulDense(y)
		lhs, rhs := 0.0, 0.0
		for i := range ax.Data {
			lhs += ax.Data[i] * y.Data[i]
		}
		for i := range aty.Data {
			rhs += aty.Data[i] * x.Data[i]
		}
		return abs(lhs-rhs) < 1e-9*(1+abs(lhs))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// Property: transposing preserves every entry: Aᵀ[j,i] == A[i,j].
func TestTransposeEntriesProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r, c := 1+rng.Intn(10), 1+rng.Intn(10)
		a := randomCSR(t, r, c, 0.4, rng)
		at := a.Transpose()
		for i := 0; i < r; i++ {
			for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
				j := int(a.ColIdx[p])
				if at.At(j, i) != a.Val[p] {
					return false
				}
			}
		}
		return at.NNZ() == a.NNZ()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
