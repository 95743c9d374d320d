// Command perfbench is the seeded, fixed-work benchmark of the PMW query
// server. It stands the whole system up inside its own process through
// the public constructors `pmwcm serve`, `pmwcm store` and `pmwcm route`
// use, drives it over loopback HTTP as a closed loop of two clients, and
// prints every end-to-end metric (or, with --trace 1, every per-layer
// metric) by name with its unit. The last line of standard output is one
// JSON object: {"correct", "attempted", "failed", "metrics"}.
//
//	perfbench --workload miss_heavy --seed 1 --seconds 10 --trace 0
//
// A run answers a fixed number of queries chosen from the seed; --seconds
// scales that number, it never stops a clock. Each run:
//
//  1. prefills a fresh system (untimed) and abandons it without Shutdown,
//     as a crash would;
//  2. several times over, recovers the abandoned state from a fresh copy
//     (timed: setup_s is the median), warms up (untimed) and answers the
//     timed queries. Every repetition answers the same queries from the
//     same state, so each does the same work and must release the same
//     answers; the timing metrics pool the whole timed phases of all
//     repetitions;
//  3. checks the answers off the clock: every query answered, every answer
//     finite and of the loss's dimension, every repeat served from the
//     cache with the bytes first released, and the excess risk of every
//     released answer.
//
// With --trace 1 the run makes one untraced repetition, then recovers the
// same abandoned state again with the layer seams wrapped and replays the
// same queries; the two answer digests must be equal.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/convex"
	"repro/internal/optimize"
)

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	workdir  string
	// quick shrinks the workload to a few queries per session, and inject
	// corrupts one output before the checks ("nonfinite", "refused" or
	// "digest"): the benchmark's own test sets them to show the checks can
	// fail a run.
	quick  bool
	inject string
}

// metric is one named measurement.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload name")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed")
	flag.IntVar(&o.seconds, "seconds", 10, "scales the fixed timed query count (about this many seconds on a 2-core machine)")
	flag.IntVar(&trace, "trace", 0, "1 prints the per-layer metrics of a traced run instead of the end-to-end ones")
	flag.StringVar(&o.workdir, "workdir", ".bench_build/work", "directory for server state (removed after the run)")
	flag.Parse()
	o.trace = trace == 1
	res, err := run(o, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// pass is the outcome of one repetition: a warm-up plus a timed phase.
type pass struct {
	warm, timed    [][]record
	elapsed, cpu   time.Duration
	lat            []float64 // round trips of the answered timed queries, ms
	mallocs, gcs   uint64
	evictions      float64
	pageins        float64
	compactions    float64
	commitBatches  family
	attempted      int
	answered, tops int
	hits           int
	digest         string
}

// cpuPerQuery is the pass's process CPU per answered timed query, in ms.
func (p pass) cpuPerQuery() float64 { return ms(p.cpu) / float64(max(p.answered, 1)) }

// bench is one run's state.
type bench struct {
	o     options
	w     workload
	dep   *deployment
	drv   *driver
	work  string
	timed int
	out   io.Writer
	notes []string
}

func run(o options, out io.Writer) (*result, error) {
	w, err := workloadByName(o.workload)
	if err != nil {
		return nil, err
	}
	if o.quick {
		w = w.quick()
	}
	if o.seconds < 1 {
		return nil, fmt.Errorf("--seconds must be at least 1")
	}
	dep, err := newDeployment(w, o.seed)
	if err != nil {
		return nil, err
	}
	work, err := filepath.Abs(filepath.Join(o.workdir, fmt.Sprintf("%s-%d-%d", w.name, o.seed, os.Getpid())))
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(work, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	b := &bench{o: o, w: w, dep: dep, drv: newDriver(w, o.seed), work: work,
		timed: w.timedPerSession(o.seconds), out: out}
	defer b.drv.close()
	return b.run()
}

func (b *bench) printf(format string, args ...any) { fmt.Fprintf(b.out, format, args...) }

// phase logs a finished phase's wall time to standard error.
func phase(name string, start time.Time) {
	fmt.Fprintf(os.Stderr, "perfbench: %-8s %.3fs\n", name, time.Since(start).Seconds())
}

func (b *bench) run() (*result, error) {
	// 1. Prefill a fresh system, then abandon it.
	orig := filepath.Join(b.work, "prefill")
	start := time.Now()
	sys, err := b.dep.start(orig, nil)
	if err != nil {
		return nil, fmt.Errorf("prefill start: %w", err)
	}
	if err := b.drv.createSessions(sys); err != nil {
		sys.close(true)
		return nil, err
	}
	prefill, _ := b.drv.run(sys, b.w.prefill)
	sys.close(false)
	cursor := append([]int(nil), b.drv.next...)
	phase("prefill", start)

	// 2. Recover the abandoned state, warm up and answer the timed
	// queries, once per repetition. Only the first repetition's records
	// are kept for the checks; later ones must match its digest.
	reps := b.w.reps
	if b.o.trace {
		reps = 1 // the traced pass below recovers once more
	}
	var (
		setups  []float64
		passes  []pass
		records pass
	)
	for i := 0; i < reps; i++ {
		b.drv.next = append(b.drv.next[:0], cursor...)
		sys, secs, err := b.recover(orig, fmt.Sprintf("rep%d", i), nil)
		if err != nil {
			return nil, err
		}
		setups = append(setups, secs)
		start = time.Now()
		p := b.pass(sys, nil)
		sys.close(true)
		phase(fmt.Sprintf("rep%d", i), start)
		if i == 0 {
			records = p
		}
		p.warm, p.timed = nil, nil
		passes = append(passes, p)
	}
	rssMiB := peakRSSMiB()
	switch b.o.inject {
	case "nonfinite":
		if len(records.timed[0]) > 0 && len(records.timed[0][0].answer) > 0 {
			records.timed[0][0].answer[0] = math.NaN()
		}
	case "refused":
		records.timed[0][0].status = http.StatusServiceUnavailable
	}

	// 3. Check.
	start = time.Now()
	problems, excess := b.check(prefill, records)
	for i, p := range passes[1:] {
		if p.digest != passes[0].digest {
			problems = append(problems, fmt.Sprintf("repetition %d's answer digest %s differs from the first's %s", i+1, p.digest, passes[0].digest))
		}
	}
	phase("check", start)
	res := &result{Metrics: map[string]metric{}}
	for _, p := range passes {
		res.Attempted += p.attempted
		res.Failed += p.attempted - p.answered
	}
	b.printf("workload %s  seed %d  sessions %d  clients %d  queries/session: prefill %d, warm-up %d, timed %d, repetitions %d\n",
		b.w.name, b.o.seed, b.w.sessions, clients, b.w.prefill, b.w.warmup, b.timed, reps)
	b.printf("why: %s\n", b.w.why)
	b.printf("answer digest %s\n", passes[0].digest)

	if !b.o.trace {
		b.endToEnd(res, passes, setups, excess, rssMiB)
	} else {
		// Drop the untraced pass's records so both passes run over the
		// same live heap (and so the same garbage-collector pacing).
		records = pass{}
		runtime.GC()
		b.drv.next = append(b.drv.next[:0], cursor...)
		t := newTracer()
		s, _, err := b.recover(orig, "traced", t)
		if err != nil {
			return nil, err
		}
		replayed := t.replayed.Load()
		start = time.Now()
		tb := b.pass(s, t)
		phase("traced", start)
		if b.o.inject == "digest" {
			tb.digest = "corrupted-" + tb.digest
		}
		b.printf("traced answer digest %s\n", tb.digest)
		if tb.digest != passes[0].digest {
			problems = append(problems, fmt.Sprintf("traced run's answer digest %s differs from the untraced run's %s", tb.digest, passes[0].digest))
		}
		b.perLayer(res, s, t, passes[0], tb, replayed)
		s.close(true)
	}

	for _, n := range b.notes {
		b.printf("note: %s\n", n)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		b.printf("%-34s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	for _, p := range problems {
		b.printf("CHECK FAILED: %s\n", p)
	}
	res.Correct = len(problems) == 0
	return res, nil
}

// recover copies the abandoned prefill state to a fresh directory and
// times bringing the system up over it until every session is ready to
// serve: WAL replay and cache rebuild locally, plus one touch per session
// through the router (which pages it in) in the fleet.
func (b *bench) recover(orig, name string, t *tracer) (*system, float64, error) {
	dir := filepath.Join(b.work, name)
	if err := copyDir(orig, dir); err != nil {
		return nil, 0, err
	}
	start := time.Now()
	sys, err := b.dep.start(dir, t)
	if err != nil {
		return nil, 0, fmt.Errorf("recovering %s: %w", name, err)
	}
	if b.w.fleet {
		if err := b.drv.touch(sys); err != nil {
			sys.close(true)
			return nil, 0, err
		}
	}
	return sys, time.Since(start).Seconds(), nil
}

// pass runs the warm-up and the timed phase on sys.
func (b *bench) pass(sys *system, t *tracer) pass {
	var p pass
	p.warm, _ = b.drv.run(sys, b.w.warmup)
	runtime.GC()
	ev0 := readFamily(sys.regs, "pmwcm_session_evictions_total")
	pg0 := readFamily(sys.regs, "pmwcm_session_pageins_total")
	cp0 := readFamily(sys.regs, "pmwcm_wal_compactions_total")
	cb0 := readFamily(sys.regs, "pmwcm_wal_commit_batch")
	if t != nil {
		t.reset()
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuTime()
	p.timed, p.elapsed = b.drv.run(sys, b.timed)
	p.cpu = cpuTime() - cpu0
	runtime.ReadMemStats(&ms1)
	p.mallocs, p.gcs = ms1.Mallocs-ms0.Mallocs, uint64(ms1.NumGC-ms0.NumGC)
	p.evictions = readFamily(sys.regs, "pmwcm_session_evictions_total").minus(ev0).value
	p.pageins = readFamily(sys.regs, "pmwcm_session_pageins_total").minus(pg0).value
	p.compactions = readFamily(sys.regs, "pmwcm_wal_compactions_total").minus(cp0).value
	p.commitBatches = readFamily(sys.regs, "pmwcm_wal_commit_batch").minus(cb0)
	for _, rs := range p.timed {
		p.attempted += len(rs)
		for _, r := range rs {
			if !r.ok() {
				continue
			}
			p.answered++
			p.lat = append(p.lat, ms(r.lat))
			if r.cached {
				p.hits++
			} else if r.top {
				p.tops++
			}
		}
	}
	p.digest = digest(join(p.warm, p.timed))
	return p
}

// check verifies every answer the clients received and computes the
// excess risk of each answer the mechanism released in the timed phase.
func (b *bench) check(prefill [][]record, a pass) (problems []string, excess []float64) {
	u := b.dep.data.U
	dim := -1
	if l, err := convex.Build(u, b.w.spec(b.o.seed, 0, 0)); err == nil {
		dim = l.Domain().Dim()
	}
	fail := func(format string, args ...any) {
		if len(problems) < 10 {
			problems = append(problems, fmt.Sprintf(format, args...))
		}
	}
	all := join(join(prefill, a.warm), a.timed)
	for s, rs := range all {
		released := map[string][]float64{}
		for _, r := range rs {
			if !r.ok() {
				fail("session %d query %d: status %d, want 200", s, r.q, r.status)
				continue
			}
			if len(r.answer) != dim {
				fail("session %d query %d: answer has %d coordinates, want %d", s, r.q, len(r.answer), dim)
			}
			for _, v := range r.answer {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					fail("session %d query %d: non-finite answer %v", s, r.q, r.answer)
					break
				}
			}
			key := r.spec.Kind + string(r.spec.Params)
			first, seen := released[key]
			switch {
			case !seen && r.cached:
				fail("session %d query %d: first ask of %s served from cache", s, r.q, key)
			case seen && !r.cached:
				fail("session %d query %d: repeat of %s not served from cache", s, r.q, key)
			case seen && !equalBits(first, r.answer):
				fail("session %d query %d: cache re-released %v, first release was %v", s, r.q, r.answer, first)
			}
			if !seen {
				released[key] = r.answer
			}
		}
	}

	// Excess risk L_D(θ̂) − min_θ L_D(θ) of every mechanism release in
	// the timed phase, off the clock, on two workers.
	var todo []record
	for _, rs := range a.timed {
		for _, r := range rs {
			if r.ok() && !r.cached && len(r.answer) == dim {
				todo = append(todo, r)
			}
		}
	}
	excess = make([]float64, len(todo))
	errs := make([]error, len(todo))
	hist := b.dep.data.Histogram()
	var wg sync.WaitGroup
	for wkr := 0; wkr < 2; wkr++ {
		wg.Add(1)
		go func(wkr int) {
			defer wg.Done()
			for i := wkr; i < len(todo); i += 2 {
				l, err := convex.Build(u, todo[i].spec)
				if err == nil {
					excess[i], err = optimize.Excess(l, todo[i].answer, hist, optimize.Options{})
				}
				errs[i] = err
			}
		}(wkr)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		fail("excess risk: %v", err)
	}
	for i, e := range excess {
		if math.IsNaN(e) || math.IsInf(e, 0) {
			fail("session %d query %d: non-finite excess risk", todo[i].session, todo[i].q)
		}
	}
	return problems, excess
}

func equalBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// endToEnd fills the end-to-end metrics of an untraced run. Every
// repetition answered the same queries from the same state, periodic work
// such as WAL compaction included, and the timing metrics pool all of
// their timed phases: no query and no stretch of time is left out.
func (b *bench) endToEnd(res *result, passes []pass, setups, excess []float64, rssMiB float64) {
	var wall, cpu time.Duration
	var lat, repQPS, compactions []float64
	answered, tops := 0, 0
	for _, p := range passes {
		wall += p.elapsed
		cpu += p.cpu
		lat = append(lat, p.lat...)
		answered += p.answered
		tops += p.tops
		repQPS = append(repQPS, float64(p.answered)/p.elapsed.Seconds())
		compactions = append(compactions, p.compactions)
	}
	tailV, tailLabel := tail(lat)
	b.printf("timing metrics pool the timed phases of %d repetitions; qps of each %v\n", len(passes), repQPS)
	b.printf("WAL compactions in each timed phase %v; setup_s of each repetition %v\n", compactions, setups)
	b.printf("latency_tail_ms is the %s; rss_mb is the peak up to the end of the last timed phase and includes the in-process clients\n", tailLabel)
	set := func(name, unit string, v float64) { res.Metrics[name] = metric{Value: v, Unit: unit} }
	set("setup_s", "s", median(setups))
	set("qps", "1/s", float64(answered)/wall.Seconds())
	set("latency_p50_ms", "ms", median(lat))
	set("latency_tail_ms", "ms", tailV)
	set("success_ratio", "ratio", float64(answered)/float64(max(res.Attempted, 1)))
	set("cpu_ms_per_query", "ms", ms(cpu)/float64(max(answered, 1)))
	set("excess_p90", "loss", quantile(excess, 0.9))
	set("updates_per_kquery", "count", 1000*float64(tops)/float64(max(answered, 1)))
	set("rss_mb", "MiB", rssMiB)
}

// copyDir copies a flat-or-nested state directory.
func copyDir(src, dst string) error {
	return filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, 0o644)
	})
}
