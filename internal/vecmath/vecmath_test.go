package vecmath

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestDot(t *testing.T) {
	if got := Dot([]float64{1, 2, 3}, []float64{4, 5, 6}); got != 32 {
		t.Fatalf("Dot = %v, want 32", got)
	}
	if got := Dot(nil, nil); got != 0 {
		t.Fatalf("Dot(nil,nil) = %v, want 0", got)
	}
}

func TestDotMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on length mismatch")
		}
	}()
	Dot([]float64{1}, []float64{1, 2})
}

func TestNorms(t *testing.T) {
	v := []float64{3, -4}
	if got := Norm2(v); !almostEq(got, 5, 1e-12) {
		t.Errorf("Norm2 = %v, want 5", got)
	}
	if got := Norm2(nil); got != 0 {
		t.Errorf("Norm2(nil) = %v, want 0", got)
	}
}

func TestNorm2Overflow(t *testing.T) {
	// Naive sum-of-squares overflows; scaled computation must not.
	v := []float64{1e200, 1e200}
	want := 1e200 * math.Sqrt2
	if got := Norm2(v); math.IsInf(got, 0) || !almostEq(got/want, 1, 1e-12) {
		t.Fatalf("Norm2 overflow-guard failed: got %v want %v", got, want)
	}
}

func TestDistances(t *testing.T) {
	a := []float64{1, 2}
	b := []float64{4, 6}
	if got := Dist2(a, b); !almostEq(got, 5, 1e-12) {
		t.Errorf("Dist2 = %v, want 5", got)
	}
	if got := Dist1(a, b); got != 7 {
		t.Errorf("Dist1 = %v, want 7", got)
	}
}

func TestArithmetic(t *testing.T) {
	a := []float64{1, 2}
	b := []float64{3, 5}
	if got := Add(a, b); !ApproxEqual(got, []float64{4, 7}, 0) {
		t.Errorf("Add = %v", got)
	}
	if got := Sub(b, a); !ApproxEqual(got, []float64{2, 3}, 0) {
		t.Errorf("Sub = %v", got)
	}
	if got := Scale(2, a); !ApproxEqual(got, []float64{2, 4}, 0) {
		t.Errorf("Scale = %v", got)
	}
	dst := Copy(a)
	AddScaled(dst, 10, b)
	if !ApproxEqual(dst, []float64{31, 52}, 0) {
		t.Errorf("AddScaled = %v", dst)
	}
	// Add must not alias its inputs.
	if &a[0] == &Add(a, b)[0] {
		t.Error("Add aliased input")
	}
}

func TestSumKahan(t *testing.T) {
	// 1 followed by 1e8 copies of 1e-8 sums to 2 with compensation.
	n := 100000
	v := make([]float64, n+1)
	v[0] = 1
	for i := 1; i <= n; i++ {
		v[i] = 1e-5
	}
	if got := Sum(v); !almostEq(got, 2, 1e-9) {
		t.Fatalf("Sum = %v, want 2", got)
	}
}

func TestMeanMaxMin(t *testing.T) {
	v := []float64{2, -1, 5, 3}
	if got := Mean(v); !almostEq(got, 2.25, 1e-12) {
		t.Errorf("Mean = %v", got)
	}
	if m, i := Max(v); m != 5 || i != 2 {
		t.Errorf("Max = %v,%d", m, i)
	}
	if m, i := Min(v); m != -1 || i != 1 {
		t.Errorf("Min = %v,%d", m, i)
	}
	if got := Mean(nil); got != 0 {
		t.Errorf("Mean(nil) = %v", got)
	}
}

func TestMaxFirstOfTies(t *testing.T) {
	if _, i := Max([]float64{1, 3, 3}); i != 1 {
		t.Errorf("Max tie index = %d, want first occurrence 1", i)
	}
}

func TestClamp(t *testing.T) {
	cases := []struct{ v, lo, hi, want float64 }{
		{5, 0, 1, 1}, {-5, 0, 1, 0}, {0.5, 0, 1, 0.5},
	}
	for _, c := range cases {
		if got := Clamp(c.v, c.lo, c.hi); got != c.want {
			t.Errorf("Clamp(%v) = %v, want %v", c.v, got, c.want)
		}
	}
}

func TestSoftmax(t *testing.T) {
	got := Softmax(nil, []float64{0, 0, 0})
	want := []float64{1.0 / 3, 1.0 / 3, 1.0 / 3}
	if !ApproxEqual(got, want, 1e-12) {
		t.Errorf("Softmax uniform = %v", got)
	}
	// Shift invariance.
	a := []float64{1, 2, 3}
	b := []float64{101, 102, 103}
	if !ApproxEqual(Softmax(nil, a), Softmax(nil, b), 1e-12) {
		t.Error("Softmax not shift invariant")
	}
	if got := Sum(Softmax(nil, []float64{-3, 9, 0.4})); !almostEq(got, 1, 1e-12) {
		t.Errorf("Softmax does not normalize: sum=%v", got)
	}
}

func TestProjectL2Ball(t *testing.T) {
	inside := []float64{0.1, 0.2}
	if got := ProjectL2Ball(inside, 1); !ApproxEqual(got, inside, 0) {
		t.Errorf("interior point moved: %v", got)
	}
	out := ProjectL2Ball([]float64{3, 4}, 1)
	if !almostEq(Norm2(out), 1, 1e-12) {
		t.Errorf("projection norm = %v, want 1", Norm2(out))
	}
	if !ApproxEqual(out, []float64{0.6, 0.8}, 1e-12) {
		t.Errorf("projection direction wrong: %v", out)
	}
	if got := ProjectL2Ball([]float64{1, 1}, 0); !ApproxEqual(got, []float64{0, 0}, 0) {
		t.Errorf("r=0 projection = %v", got)
	}
}

func TestProjectBox(t *testing.T) {
	got := ProjectBox([]float64{-2, 0.5, 2}, 0, 1)
	if !ApproxEqual(got, []float64{0, 0.5, 1}, 0) {
		t.Errorf("ProjectBox = %v", got)
	}
}

// Property: projection onto the L2 ball is a contraction toward every ball
// point, and idempotent.
func TestProjectL2BallProperties(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) == 0 || len(raw) > 8 {
			return true
		}
		a := make([]float64, len(raw))
		for i, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
			a[i] = math.Mod(v, 100)
		}
		p := ProjectL2Ball(a, 1)
		if Norm2(p) > 1+1e-9 {
			return false
		}
		pp := ProjectL2Ball(p, 1)
		return ApproxEqual(p, pp, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestFillZerosCopy(t *testing.T) {
	z := Zeros(3)
	if !ApproxEqual(z, []float64{0, 0, 0}, 0) {
		t.Errorf("Zeros = %v", z)
	}
	Fill(z, 2)
	if !ApproxEqual(z, []float64{2, 2, 2}, 0) {
		t.Errorf("Fill = %v", z)
	}
	c := Copy(z)
	c[0] = 99
	if z[0] != 2 {
		t.Error("Copy aliased input")
	}
}

func TestScaleInPlaceAndAddConst(t *testing.T) {
	a := []float64{1, -2, 3}
	ScaleInPlace(a, 2)
	if a[0] != 2 || a[1] != -4 || a[2] != 6 {
		t.Errorf("ScaleInPlace = %v", a)
	}
	AddConst(a, -1)
	if a[0] != 1 || a[1] != -5 || a[2] != 5 {
		t.Errorf("AddConst = %v", a)
	}
}

func TestExpShiftedSumMatchesSoftmax(t *testing.T) {
	a := []float64{0.5, -1.25, 3, 0, -7}
	m, _ := Max(a)
	dst := make([]float64, len(a))
	z := ExpShiftedSum(dst, a, m)
	ScaleInPlace(dst, 1/z)
	want := Softmax(nil, a)
	for i := range want {
		if math.Abs(dst[i]-want[i]) > 1e-15 {
			t.Errorf("fused softmax[%d] = %v, want %v", i, dst[i], want[i])
		}
	}
}

func TestAddScaledMax(t *testing.T) {
	dst := []float64{1, 2, 3}
	a := []float64{10, -1, 0}
	m := AddScaledMax(dst, 0.5, a)
	if dst[0] != 6 || dst[1] != 1.5 || dst[2] != 3 {
		t.Errorf("AddScaledMax dst = %v", dst)
	}
	if m != 6 {
		t.Errorf("AddScaledMax max = %v, want 6", m)
	}
	if m := AddScaledMax(nil, 1, nil); !math.IsInf(m, -1) {
		t.Errorf("empty AddScaledMax = %v, want -Inf", m)
	}
}
