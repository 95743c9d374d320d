package convex

import (
	"math"
	"testing"
)

func TestPinballValidation(t *testing.T) {
	ball, _ := NewL2Ball(2, 1)
	for _, c := range []struct{ tau, smooth, fb float64 }{
		{0, 0.1, 1}, {1, 0.1, 1}, {0.5, 0, 1}, {0.5, 0.1, 0},
	} {
		if _, err := NewPinball("p", ball, c.tau, c.smooth, c.fb); err == nil {
			t.Errorf("NewPinball(%v) accepted", c)
		}
	}
}

// The smoothed pinball profile must be continuous, have continuous
// derivative, and agree with the exact pinball outside the smoothing
// window.
func TestPinballProfileShape(t *testing.T) {
	ball, _ := NewL2Ball(2, 1)
	tau, s := 0.3, 0.1
	pb, err := NewPinball("p", ball, tau, s, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	// Exact pinball outside the window (up to the 1/featBound scale c=1).
	v, dv := pb.Scalar(0.5, 0) // r = 0.5 ≥ s
	if math.Abs(v-tau*0.5) > 1e-12 || math.Abs(dv-tau) > 1e-12 {
		t.Errorf("right branch: v=%v dv=%v", v, dv)
	}
	v, dv = pb.Scalar(-0.5, 0)
	if math.Abs(v-(1-tau)*0.5) > 1e-12 || math.Abs(dv-(tau-1)) > 1e-12 {
		t.Errorf("left branch: v=%v dv=%v", v, dv)
	}
	// Continuity at ±s.
	for _, r := range []float64{s, -s} {
		vIn, dIn := pb.Scalar(r-1e-9*sign(r), 0)
		vOut, dOut := pb.Scalar(r+1e-9*sign(r), 0)
		if math.Abs(vIn-vOut) > 1e-6 {
			t.Errorf("value jump at r=%v: %v vs %v", r, vIn, vOut)
		}
		if math.Abs(dIn-dOut) > 1e-6 {
			t.Errorf("slope jump at r=%v: %v vs %v", r, dIn, dOut)
		}
	}
	// Minimum at r = argmin: derivative zero inside the window at
	// r* = −b/(2a) = −(2τ−1)·s.
	rstar := -(2*tau - 1) * s
	if _, d := pb.Scalar(rstar, 0); math.Abs(d) > 1e-12 {
		t.Errorf("derivative at smoothed minimum = %v", d)
	}
}

func TestScaledProperties(t *testing.T) {
	ball, _ := NewL2Ball(2, 1)
	sq, _ := NewSquared("sq", ball, []float64{0, 0, 1}, 1, 1)
	if _, err := NewScaled(sq, 0); err == nil {
		t.Error("c=0 accepted")
	}
	if _, err := NewScaled(sq, math.NaN()); err == nil {
		t.Error("NaN accepted")
	}
	sc, err := NewScaled(sq, 2.5)
	if err != nil {
		t.Fatal(err)
	}
	theta := []float64{0.2, -0.1}
	x := []float64{0.3, 0.4, 0.5}
	if got, want := sc.Value(theta, x), 2.5*sq.Value(theta, x); math.Abs(got-want) > 1e-15 {
		t.Errorf("Value = %v, want %v", got, want)
	}
	if sc.Lipschitz() != 2.5 {
		t.Errorf("Lipschitz = %v", sc.Lipschitz())
	}
	if sc.Inner() != Loss(sq) {
		t.Error("Inner wrong")
	}
	// NewUnitLipschitz round trip.
	norm, err := NewUnitLipschitz(sc)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(norm.Lipschitz()-1) > 1e-12 {
		t.Errorf("normalized Lipschitz = %v", norm.Lipschitz())
	}
}
