package mech

import (
	"math"
	"testing"
	"testing/quick"
)

func TestGaussianRho(t *testing.T) {
	// Δ=1, σ=2 → ρ = 1/8.
	rho, err := GaussianRho(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rho-0.125) > 1e-15 {
		t.Errorf("rho = %v", rho)
	}
	if _, err := GaussianRho(-1, 1); err == nil {
		t.Error("negative sensitivity accepted")
	}
	if _, err := GaussianRho(1, 0); err == nil {
		t.Error("sigma=0 accepted")
	}
}

func TestRhoToDPHandChecked(t *testing.T) {
	// ρ = 0.1, δ = 1e-6 → ε = 0.1 + 2√(0.1·ln 1e6).
	p, err := RhoToDP(0.1, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	want := 0.1 + 2*math.Sqrt(0.1*math.Log(1e6))
	if math.Abs(p.Eps-want) > 1e-12 {
		t.Errorf("eps = %v, want %v", p.Eps, want)
	}
	if p.Delta != 1e-6 {
		t.Errorf("delta = %v", p.Delta)
	}
	if _, err := RhoToDP(-0.1, 1e-6); err == nil {
		t.Error("negative rho accepted")
	}
	if _, err := RhoToDP(0.1, 0); err == nil {
		t.Error("delta=0 accepted")
	}
	if _, err := RhoToDP(0.1, 1); err == nil {
		t.Error("delta=1 accepted")
	}
}

// newZCDP returns the registry "zcdp" accountant over a generous budget.
func newZCDP(t *testing.T) Accountant {
	t.Helper()
	a, err := NewAccountant("zcdp", Params{Eps: 1e3, Delta: 1e-6}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestZCDPAccountant(t *testing.T) {
	a := newZCDP(t)
	if st := a.Export(); st.Rho != 0 || st.Count != 0 {
		t.Fatal("fresh accountant dirty")
	}
	if err := a.Spend(GaussianCost(1, 2, 1, 1e-7)); err != nil {
		t.Fatal(err)
	}
	if err := a.Spend(Cost{Eps: 1, Delta: 1e-7, Rho: 0.375}); err != nil {
		t.Fatal(err)
	}
	st := a.Export()
	if math.Abs(st.Rho-0.5) > 1e-15 {
		t.Errorf("rho = %v", st.Rho)
	}
	if st.Count != 2 {
		t.Errorf("count = %d", st.Count)
	}
	if err := a.Spend(Cost{Eps: 1, Rho: -1}); err == nil {
		t.Error("negative rho accepted")
	}
	if tot := a.Total(); !(tot.Eps > 0 && tot.Delta > 0) || math.IsInf(tot.Eps, 0) {
		t.Errorf("total = %+v", tot)
	}
}

// For a homogeneous chain of T Gaussian mechanisms each calibrated by the
// classical bound at (ε₀, δ₀), the zCDP total must be at least as tight as
// DRV10 strong composition once T is large — zCDP's advantage is the point
// of including it.
func TestZCDPTighterThanDRV10ForLongGaussianChains(t *testing.T) {
	T := 500
	eps0, delta0 := 0.01, 1e-9
	sigma, err := GaussianSigma(1, eps0, delta0)
	if err != nil {
		t.Fatal(err)
	}
	zc := newZCDP(t)
	drv, err := NewAccountant("advanced", Params{Eps: 1e3, Delta: 1e-6}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < T; i++ {
		c := GaussianCost(1, sigma, eps0, delta0)
		if err := zc.Spend(c); err != nil {
			t.Fatal(err)
		}
		if err := drv.Spend(c); err != nil {
			t.Fatal(err)
		}
	}
	if z, d := zc.Total().Eps, drv.Total().Eps; z >= d {
		t.Errorf("zCDP (%v) not tighter than DRV10 (%v) for T=%d Gaussians", z, d, T)
	}
}

// zCDP composition is additive: combining two accountants equals one
// accountant with all spends.
func TestZCDPAdditivity(t *testing.T) {
	f := func(rawA, rawB float64) bool {
		ca := Cost{Eps: 1, Delta: 1e-9, Rho: math.Abs(math.Mod(rawA, 10))}
		cb := Cost{Eps: 1, Delta: 1e-9, Rho: math.Abs(math.Mod(rawB, 10))}
		a, b, c := newZCDP(t), newZCDP(t), newZCDP(t)
		if a.Spend(ca) != nil || b.Spend(cb) != nil {
			return true
		}
		if c.Spend(ca) != nil || c.Spend(cb) != nil {
			return true
		}
		return math.Abs(a.Export().Rho+b.Export().Rho-c.Export().Rho) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
