package main

import (
	"encoding/json"
	"fmt"
	"math"

	"repro/internal/convex"
)

// workload is one traffic mix against one deployment shape. Every count is
// fixed: a run answers prefill+warmup+timed queries per session, whatever
// the machine's speed, so two runs at one seed do the same work.
type workload struct {
	name string
	why  string

	// Universe: dim features × levels per coordinate, plus a label with
	// labels levels (the `pmwcm serve` grid flags).
	dim, levels, labels int
	rows                int

	// sessions are created in index order; client c owns every session
	// whose index is c modulo clients (or, in the fleet, every session on
	// replica c), so each session sees one fixed query sequence.
	sessions int
	params   map[string]any

	// Per-session query counts of the untimed phases. The prefill state is
	// abandoned without Shutdown, and each repetition recovers it and
	// warms up before its timed phase.
	prefill, warmup int
	// rate is the timed query count per requested second, for the whole
	// workload and summed over the repetitions: --seconds scales the work,
	// never a clock.
	rate float64
	// reps is how many times the abandoned state is recovered and the
	// timed queries answered; setup_s and the timing metrics are medians
	// over them.
	reps int

	// missEvery > 0 makes every missEvery-th query after the prefill a
	// distinct one and every other a seeded pick among hotKeys per-session
	// specs: a hot ratio of 1 − 1/missEvery, with the same number of misses
	// at every seed.
	missEvery int
	hotKeys   int

	// fleet runs the blob store, two remote-backed replicas and the
	// router; burst is how many consecutive queries a session gets before
	// its client moves to the next of its sessions, maxResident the
	// per-replica residency cap.
	fleet       bool
	burst       int
	maxResident int
}

// clients is the closed loop's width: two analysts, each waiting for an
// answer before asking the next question, one keep-alive connection each.
const clients = 2

// missParams are the session parameters of scenarios/miss_heavy.json: a
// budget and horizon no run here can exhaust, so every refusal would be a
// real failure.
func missParams() map[string]any {
	return map[string]any{"k": 100000, "tbudget": 4096, "eps": 4, "alpha": 0.1}
}

var workloads = []workload{
	{
		name: "miss_heavy",
		why:  "all-distinct queries on the 27-point serve grid: the solver- and per-call-bound mechanism path, with WAL group commit on every top answer",
		dim:  2, levels: 3, labels: 3, rows: 200000,
		sessions: 8, params: missParams(),
		prefill: 30, warmup: 20, rate: 520, reps: 3,
	},
	{
		name: "miss_wide",
		why:  "the same distinct stream over a 648-point universe, where per-element xeval and vecmath kernel work dominates each query",
		dim:  3, levels: 6, labels: 3, rows: 200000,
		sessions: 8, params: missParams(),
		prefill: 4, warmup: 2, rate: 64, reps: 4,
	},
	{
		name: "hit_heavy",
		why:  "mostly repeats of a few hot specs per session: the HTTP, JSON, canonical-key and answer-cache read path; solver changes should not move it",
		dim:  2, levels: 3, labels: 3, rows: 200000,
		sessions: 8, params: missParams(),
		prefill: 30, warmup: 200, rate: 15000, reps: 4,
		missEvery: 200, hotKeys: 8,
	},
	{
		name: "fleet_remote",
		why:  "blob store, two remote-backed replicas and the router with a resident cap below the session count: route hop, snapshot PUT per top, evict and page-in",
		dim:  2, levels: 3, labels: 3, rows: 200000,
		sessions: 8, params: map[string]any{"k": 100000, "tbudget": 4096, "eps": 4, "alpha": 0.05},
		prefill: 128, warmup: 8, rate: 170, reps: 5,
		fleet: true, burst: 4, maxResident: 3,
	},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// quick shrinks every count to a few queries per session: the mode the
// benchmark's own test runs.
func (w workload) quick() workload {
	w.rows = 20000
	w.prefill, w.warmup, w.reps = 6, 4, 2
	if w.fleet {
		w.burst = 2
	}
	w.rate = 0
	return w
}

// timedPerSession is the fixed query count of one session in one
// repetition's timed phase, a whole number of bursts.
func (w workload) timedPerSession(seconds int) int {
	step := max(w.burst, 1)
	n := int(math.Round(w.rate * float64(seconds) / float64(w.sessions*w.reps)))
	if w.rate == 0 {
		n = 8
	}
	n = (n + step - 1) / step * step
	return max(n, step)
}

// mix is splitmix64 over (seed, session, query): the stateless source of
// every stream decision, so a pass can restart at any query index.
func mix(seed int64, s, q int) uint64 {
	x := uint64(seed)*0x9e3779b97f4a7c15 ^ uint64(s)<<40 ^ uint64(q)
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// spec is query q of session s. Distinct queries follow loadgen's
// miss_heavy rotation (kind and leading parameter move in large steps; a
// 1e-9·n term keeps every canonical key unique); the seed shifts where in
// the rotation the run starts. The prefill is all distinct on every
// workload, so the state setup recovers holds the same kind of history.
func (w workload) spec(seed int64, s, q int) convex.Spec {
	if w.missEvery > 0 && q >= w.prefill && (q-w.prefill)%w.missEvery != w.missEvery-1 {
		return hotSpec(s*w.hotKeys + int(mix(seed, s, q)%uint64(w.hotKeys)))
	}
	n := uint64(seed)%100003*7919 + uint64(q)*uint64(w.sessions) + uint64(s)
	return distinctSpec(n)
}

func distinctSpec(n uint64) convex.Spec {
	v := math.Mod(0.05*float64(n), 1.4) + float64(n)*1e-9
	switch n % 3 {
	case 0:
		return convex.Spec{Kind: "logistic", Params: fparam("temp", 0.2+v)}
	case 1:
		return convex.Spec{Kind: "hinge", Params: fparam("width", 0.5+v)}
	default:
		return convex.Spec{Kind: "huber", Params: fparam("delta", 0.2+v)}
	}
}

// hotSpec is loadgen's hot-key catalog: h indexes a distinct canonical spec.
func hotSpec(h int) convex.Spec {
	switch h % 4 {
	case 0:
		return convex.Spec{Kind: "logistic", Params: fparam("temp", 0.3+0.05*float64(h))}
	case 1:
		return convex.Spec{Kind: "hinge", Params: fparam("width", 1+0.1*float64(h))}
	case 2:
		return convex.Spec{Kind: "huber", Params: fparam("delta", 0.3+0.02*float64(h))}
	default:
		return convex.Spec{Kind: "logistic", Params: fparam("margin", 0.01*float64(h))}
	}
}

func fparam(name string, v float64) json.RawMessage {
	return json.RawMessage(fmt.Sprintf(`{%q:%.17g}`, name, v))
}
