package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// contract is the part of ../BENCHMARK.json this test checks against.
type contract struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readContract(t *testing.T) contract {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(data, &c); err != nil {
		t.Fatal(err)
	}
	return c
}

func quickRun(t *testing.T, workload string, trace bool, inject string) (*result, string) {
	t.Helper()
	var out bytes.Buffer
	res, err := run(options{workload: workload, seed: 7, seconds: 1, trace: trace, quick: true,
		workdir: t.TempDir(), inject: inject}, &out)
	if err != nil {
		t.Fatalf("%s trace=%v: %v\n%s", workload, trace, err, out.String())
	}
	return res, out.String()
}

// TestQuickAllWorkloads runs every workload in quick mode, untraced and
// traced, and checks that each metric of the contract prints with its unit
// and that the run's own checks pass.
func TestQuickAllWorkloads(t *testing.T) {
	c := readContract(t)
	if len(c.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(c.Workloads), len(workloads))
	}
	for _, w := range c.Workloads {
		if got, err := workloadByName(w.Name); err != nil || got.why != w.Why {
			t.Errorf("workload %s: why %q, BENCHMARK.json says %q (%v)", w.Name, got.why, w.Why, err)
		}
		for _, trace := range []bool{false, true} {
			want := c.EndToEnd
			if trace {
				want = c.PerLayer
			}
			res, out := quickRun(t, w.Name, trace, "")
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d\n%s", w.Name, trace, res.Correct, res.Failed, res.Attempted, out)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, contract has %d", w.Name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", w.Name, trace, m.Name, got, m.Unit)
				}
				if !strings.Contains(out, m.Name) {
					t.Errorf("%s trace=%v: report does not print %s", w.Name, trace, m.Name)
				}
			}
		}
	}
}

// TestChecksFire shows the correctness checks can fail a run: a non-finite
// answer, a refused query, and a traced run whose answer digest differs
// from the untraced one.
func TestChecksFire(t *testing.T) {
	if res, out := quickRun(t, "miss_heavy", false, "nonfinite"); res.Correct || !strings.Contains(out, "non-finite answer") {
		t.Errorf("a non-finite answer passed the checks:\n%s", out)
	}
	if res, out := quickRun(t, "miss_wide", false, "refused"); res.Correct || !strings.Contains(out, "status 503") {
		t.Errorf("a refused query passed the checks:\n%s", out)
	}
	if res, out := quickRun(t, "hit_heavy", true, "digest"); res.Correct || !strings.Contains(out, "digest") {
		t.Errorf("a digest mismatch passed the checks:\n%s", out)
	}
}

// TestStreamsAreFixed pins that a session's query stream is a function of
// the seed alone, and that distinct streams never repeat a spec.
func TestStreamsAreFixed(t *testing.T) {
	w, err := workloadByName("miss_heavy")
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for s := 0; s < w.sessions; s++ {
		for q := 0; q < 500; q++ {
			a, b := w.spec(3, s, q), w.spec(3, s, q)
			if a.Kind != b.Kind || string(a.Params) != string(b.Params) {
				t.Fatalf("spec(3,%d,%d) not repeatable", s, q)
			}
			key := a.Kind + string(a.Params)
			if seen[key] {
				t.Fatalf("distinct stream repeats %s", key)
			}
			seen[key] = true
		}
	}
}
