package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"testing"

	"repro/internal/convex"
	"repro/internal/erm"
	"repro/internal/sample"
)

// TestGoldenDefaultAccountant freezes the released values of a fixed-seed
// run captured on the pre-accountant implementation (which hardwired the
// DRV10 SplitBudget schedule into core.New). The default ("advanced")
// accountant must reproduce every released θ, the derived parameters, and
// the reported privacy bound bit-identically: accounting became pluggable
// without perturbing a single released byte.
func TestGoldenDefaultAccountant(t *testing.T) {
	wantAnswers := [][]float64{
		{math.Float64frombits(0xbfdc99980d01a5ec), math.Float64frombits(0xbfec741d3976a48d)},
		{math.Float64frombits(0x3fb14e9f42eb731d), math.Float64frombits(0xbfd2d4adbd0ab550)},
		{math.Float64frombits(0x3fe40c51a34c65ce), math.Float64frombits(0xbfe140102aa8de69)},
		{math.Float64frombits(0x3fea36cfcf59dde3), math.Float64frombits(0x3fe0d17efe95080e)},
		{math.Float64frombits(0xbfdcc3104ece4442), math.Float64frombits(0x3fec69296661976a)},
		{math.Float64frombits(0x3fe3cc01d28e5ae9), math.Float64frombits(0x3fe5ae59a7bd4c84)},
	}
	const (
		wantT      = 6
		wantEta    = 0x1.7b7843276136fp-02
		wantEps0   = 0x1.2f43be29e706ep-06
		wantDelta0 = 0x1.65e9f80f29211p-25
		wantPrivE  = 0x1.349b4b3b9d6a8p-01
		wantPrivD  = 0x1.a905d69200d74p-21
	)

	g := testGrid(t)
	data := skewedData(t, g, 60000, 1)
	cfg := Config{
		Eps: 1, Delta: 1e-6,
		Alpha: 0.05, Beta: 0.05,
		K: 8, S: 2,
		Oracle:  erm.NoisyGD{},
		TBudget: 6,
		// Accountant left empty: the default must be "advanced".
	}
	// Explicitly naming "advanced" must be indistinguishable from the
	// default; run both and require identical releases.
	for _, name := range []string{"", "advanced"} {
		cfg.Accountant = name
		srv, err := New(cfg, data, sample.New(7))
		if err != nil {
			t.Fatal(err)
		}
		if got := srv.AccountantName(); got != "advanced" {
			t.Fatalf("accountant %q = %q, want advanced", name, got)
		}
		p := srv.Params()
		if p.T != wantT || p.Eta != wantEta || p.Eps0 != wantEps0 || p.Delta0 != wantDelta0 {
			t.Fatalf("params drifted: T=%d Eta=%x Eps0=%x Delta0=%x", p.T, p.Eta, p.Eps0, p.Delta0)
		}
		for i, l := range squaredPool(t, g, len(wantAnswers), 3) {
			theta, err := srv.Answer(l)
			if err != nil {
				t.Fatalf("answer %d: %v", i, err)
			}
			for j := range theta {
				if theta[j] != wantAnswers[i][j] {
					t.Errorf("accountant %q answer %d[%d] = %x, want %x", name, i, j, theta[j], wantAnswers[i][j])
				}
			}
		}
		priv := srv.Privacy()
		if priv.Eps != wantPrivE || priv.Delta != wantPrivD {
			t.Errorf("accountant %q privacy = (%x, %x), want (%x, %x)", name, priv.Eps, priv.Delta, wantPrivE, wantPrivD)
		}
		if srv.Updates() != 1 || srv.Answered() != len(wantAnswers) {
			t.Errorf("accountant %q updates=%d answered=%d", name, srv.Updates(), srv.Answered())
		}
	}
}

// bitsDigest hashes the exact IEEE-754 bits of a float sequence, so a
// golden pinned on it fails on any drift, however far below 1e-12.
func bitsDigest(vals []float64) string {
	h := sha256.New()
	var buf [8]byte
	for _, v := range vals {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// TestGoldenTwoEngines freezes the released bytes of both evaluation
// engines and of the offline variant, beyond the 1e-12 cross-engine check:
//   - the supportedSpecs interaction under each engine (answers, update
//     count);
//   - a dense interaction over mixed linear and squared losses with Trace
//     on (answers, every UpdateTrace field);
//   - AnswerOffline's answers, selections and final hypothesis.
//
// Any refactor of the Figure-3 step must leave every digest unchanged.
func TestGoldenTwoEngines(t *testing.T) {
	flat := func(answers [][]float64) []float64 {
		var out []float64
		for _, a := range answers {
			out = append(out, a...)
		}
		return out
	}

	for _, tc := range []struct {
		engine      string
		wantDigest  string
		wantUpdates int
	}{
		{EngineDense, "f7b8759f75a57468242403f257509c50", 4},
		{EngineFactored, "760f0e2f119569ea97f1fc38aa36f882", 4},
	} {
		answers, srv := runEngine(t, tc.engine, 0, 7)
		if got := bitsDigest(flat(answers)); got != tc.wantDigest || srv.Updates() != tc.wantUpdates {
			t.Errorf("%s supportedSpecs: digest %s updates %d, want %s and %d",
				tc.engine, got, srv.Updates(), tc.wantDigest, tc.wantUpdates)
		}
	}

	g := testGrid(t)
	data := skewedData(t, g, 60000, 19)
	var pool []convex.Loss
	lin, sq := linearPool(t, g, 20, 21), squaredPool(t, g, 20, 22)
	for i := range lin {
		pool = append(pool, lin[i], sq[i])
	}

	cfg := validConfig()
	cfg.S, cfg.Alpha, cfg.Trace, cfg.Oracle = 2, 0.05, true, erm.NoisyGD{}
	srv, err := New(cfg, data, sample.New(20))
	if err != nil {
		t.Fatal(err)
	}
	var answers [][]float64
	for _, l := range pool {
		a, err := srv.Answer(l)
		if err == ErrHalted {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		answers = append(answers, a)
	}
	var traceVals []float64
	for _, tr := range srv.Traces() {
		traceVals = append(traceVals, float64(tr.QueryIndex), float64(tr.UpdateIndex), tr.TrueErr, tr.Progress, tr.Potential)
	}
	const (
		wantDenseAnswers = "d243bc0882290c96fc88e3727877e06f"
		wantDenseTraces  = "cb53250d195b496147c5ee7400171b47"
		wantDenseUpdates = 10
	)
	if got := bitsDigest(flat(answers)); got != wantDenseAnswers {
		t.Errorf("dense traced answers digest %s, want %s", got, wantDenseAnswers)
	}
	if got := bitsDigest(traceVals); got != wantDenseTraces || srv.Updates() != wantDenseUpdates {
		t.Errorf("dense traces digest %s updates %d, want %s and %d", got, srv.Updates(), wantDenseTraces, wantDenseUpdates)
	}

	ocfg := validOfflineConfig()
	ocfg.S, ocfg.Rounds, ocfg.Oracle = 2, 6, erm.NoisyGD{}
	res, err := AnswerOffline(ocfg, data, sample.New(5), pool)
	if err != nil {
		t.Fatal(err)
	}
	const (
		wantOfflineAnswers    = "ef704f71af1382d58f5ae3a3ee598fc9"
		wantOfflineSelected   = "[28 28 12 28 22 22]"
		wantOfflineHypothesis = "ecb838e02a04490578858a13f7d1da81"
	)
	if got := bitsDigest(flat(res.Answers)); got != wantOfflineAnswers {
		t.Errorf("offline answers digest %s, want %s", got, wantOfflineAnswers)
	}
	if got := fmt.Sprint(res.Selected); got != wantOfflineSelected {
		t.Errorf("offline selections %s, want %s", got, wantOfflineSelected)
	}
	if got := bitsDigest(res.Hypothesis.P); got != wantOfflineHypothesis {
		t.Errorf("offline hypothesis digest %s, want %s", got, wantOfflineHypothesis)
	}
}
