package main

// trace.go holds the traced run's instruments. Every one sits at a public
// seam, in the benchmark's own files: an http.Handler around each layer's
// handler, an erm.Oracle around the oracle, a fault.FS under persist, a
// persist.Backend around the store, and the xeval sweep observer. Nothing
// inside the program is instrumented.

import (
	"io/fs"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/convex"
	"repro/internal/dataset"
	"repro/internal/erm"
	"repro/internal/fault"
	"repro/internal/mech"
	"repro/internal/persist"
	"repro/internal/sample"
)

// span is one handler call for one session's query.
type span struct {
	start  time.Time
	dur    time.Duration
	pagein bool
}

// tracer collects spans and counts. Spans are kept per session in arrival
// order: each session has one client that waits for every answer, so the
// k-th span of a session at any layer belongs to that session's k-th query.
type tracer struct {
	mu      sync.Mutex
	replica map[string][]span // service.NewHandler spans, by session id
	router  map[string][]span // route Handler spans, by session id
	loads   map[string]int    // Backend.LoadSession calls, by session id
	fsyncNs []int64
	saveNs  []int64

	sweeps, sweepNs atomic.Int64
	oracleCalls     atomic.Int64
	oracleNs        atomic.Int64
	walFsyncNs      atomic.Int64 // fsyncs of WAL files, which no SaveSession span covers
	saveTotalNs     atomic.Int64
	bytesWritten    atomic.Int64
	replayed        atomic.Int64
	routeErrors     atomic.Int64
}

func newTracer() *tracer {
	return &tracer{replica: map[string][]span{}, router: map[string][]span{}, loads: map[string]int{}}
}

// reset drops everything recorded so far: the timed phase starts clean.
func (t *tracer) reset() {
	t.mu.Lock()
	t.replica, t.router = map[string][]span{}, map[string][]span{}
	t.fsyncNs, t.saveNs = nil, nil
	t.mu.Unlock()
	for _, c := range []*atomic.Int64{&t.sweeps, &t.sweepNs, &t.oracleCalls, &t.oracleNs,
		&t.walFsyncNs, &t.saveTotalNs, &t.bytesWritten, &t.replayed,
		&t.routeErrors} {
		c.Store(0)
	}
}

// queryID returns the session id of a /v1/sessions/{id}/query path.
func queryID(path string) (string, bool) {
	rest, ok := strings.CutPrefix(path, "/v1/sessions/")
	if !ok {
		return "", false
	}
	return strings.CutSuffix(rest, "/query")
}

type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// replicaHandler records the span of every query the replica's
// service.NewHandler serves, marking those during which the session was
// paged in from the store.
func (t *tracer) replicaHandler(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id, ok := queryID(r.URL.Path)
		if !ok {
			next.ServeHTTP(w, r)
			return
		}
		t.mu.Lock()
		loads := t.loads[id]
		t.mu.Unlock()
		start := time.Now()
		next.ServeHTTP(w, r)
		sp := span{start: start, dur: time.Since(start)}
		t.mu.Lock()
		sp.pagein = t.loads[id] != loads
		t.replica[id] = append(t.replica[id], sp)
		t.mu.Unlock()
	})
}

// routerHandler records the router's span of every query and counts the
// router's non-2xx replies.
func (t *tracer) routerHandler(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w}
		start := time.Now()
		next.ServeHTTP(sw, r)
		sp := span{start: start, dur: time.Since(start)}
		if sw.status < 200 || sw.status > 299 {
			t.routeErrors.Add(1)
		}
		if id, ok := queryID(r.URL.Path); ok {
			t.mu.Lock()
			t.router[id] = append(t.router[id], sp)
			t.mu.Unlock()
		}
	})
}

// spansOf returns a session's spans in start order.
func spansOf(m map[string][]span, id string) []span {
	out := append([]span(nil), m[id]...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].start.Before(out[j].start) })
	return out
}

// sweep is the xeval observer's counting half.
func (t *tracer) sweep(seconds float64) {
	t.sweeps.Add(1)
	t.sweepNs.Add(int64(seconds * 1e9))
}

// oracle wraps an erm.Oracle, timing and counting Answer. It forwards
// Name and the declared per-call cost, so the mechanism plans the same
// horizon and restores the same snapshots as with the bare oracle.
type oracle struct {
	inner erm.Oracle
	t     *tracer
}

func (o oracle) Name() string { return o.inner.Name() }

func (o oracle) AnswerCost(eps, delta float64) mech.Cost { return erm.CostOf(o.inner, eps, delta) }

func (o oracle) Answer(src *sample.Source, l convex.Loss, data *dataset.Dataset, eps, delta float64) ([]float64, error) {
	start := time.Now()
	theta, err := o.inner.Answer(src, l, data, eps, delta)
	o.t.oracleNs.Add(int64(time.Since(start)))
	o.t.oracleCalls.Add(1)
	return theta, err
}

// tracedFS counts and times fsyncs and counts bytes written under persist.
type tracedFS struct {
	fault.FS
	t *tracer
}

type tracedFile struct {
	fault.File
	t   *tracer
	wal bool // opened in place (a WAL), not as a snapshot's temporary file
}

func (f tracedFS) OpenFile(name string, flag int, perm fs.FileMode) (fault.File, error) {
	file, err := f.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return tracedFile{file, f.t, true}, nil
}

func (f tracedFS) CreateTemp(dir, pattern string) (fault.File, error) {
	file, err := f.FS.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return tracedFile{file, f.t, false}, nil
}

func (f tracedFile) Write(b []byte) (int, error) {
	n, err := f.File.Write(b)
	f.t.bytesWritten.Add(int64(n))
	return n, err
}

func (f tracedFile) Sync() error {
	start := time.Now()
	err := f.File.Sync()
	d := int64(time.Since(start))
	if f.wal {
		f.t.walFsyncNs.Add(d)
	}
	f.t.mu.Lock()
	f.t.fsyncNs = append(f.t.fsyncNs, d)
	f.t.mu.Unlock()
	return err
}

// backend times SaveSession, counts page-in loads by session, and counts
// the WAL records recovery replays.
type backend struct {
	persist.Backend
	t *tracer
}

func (b backend) SaveSession(st *persist.SessionState) error {
	start := time.Now()
	err := b.Backend.SaveSession(st)
	d := int64(time.Since(start))
	b.t.saveTotalNs.Add(d)
	b.t.mu.Lock()
	b.t.saveNs = append(b.t.saveNs, d)
	b.t.mu.Unlock()
	return err
}

func (b backend) LoadSession(id string) (*persist.SessionState, error) {
	b.t.mu.Lock()
	b.t.loads[id]++
	b.t.mu.Unlock()
	return b.Backend.LoadSession(id)
}

func (b backend) LoadWAL(id string) ([]*persist.WALRecord, error) {
	recs, err := b.Backend.LoadWAL(id)
	b.t.replayed.Add(int64(len(recs)))
	return recs, err
}
