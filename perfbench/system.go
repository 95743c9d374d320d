package main

// system.go stands the server up inside this process through its public
// constructors, exactly as `pmwcm serve`, `pmwcm store` and `pmwcm route`
// assemble it, and tears it down again.

import (
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"time"

	"repro/internal/dataset"
	"repro/internal/erm"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/persist"
	"repro/internal/route"
	"repro/internal/sample"
	"repro/internal/service"
	"repro/internal/universe"
	"repro/internal/xeval"
)

// deployment is what every system of one run shares: the private dataset
// and the seed the noise streams derive from, as `pmwcm serve -seed` has it.
type deployment struct {
	w      workload
	seed   int64
	data   *dataset.Dataset
	oracle erm.Oracle
	// logger formats one line per request, as serve's does, and drops it.
	logger *slog.Logger
}

func newDeployment(w workload, seed int64) (*deployment, error) {
	g, err := universe.NewLabeledGrid(w.dim, w.levels, 1.0, w.labels, 1.0)
	if err != nil {
		return nil, err
	}
	pop, err := dataset.Skewed(g, 1.3)
	if err != nil {
		return nil, err
	}
	data := dataset.SampleFrom(sample.New(seed).Split(), pop, w.rows)
	o, err := service.OracleByName("noisygd", runtime.NumCPU())
	if err != nil {
		return nil, err
	}
	return &deployment{
		w: w, seed: seed, data: data, oracle: o,
		logger: slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelInfo})),
	}, nil
}

// source is the manager's root noise stream: the second split of the
// seed's source, the first having drawn the dataset.
func (d *deployment) source() *sample.Source {
	src := sample.New(d.seed)
	src.Split()
	return src.Split()
}

// system is one running incarnation of the server.
type system struct {
	base     string // the URL clients talk to: the replica, or the router
	mgrs     []*service.Manager
	regs     []*obs.Registry // one per replica
	replicas []string        // fleet replica names, in client order
	servers  []*http.Server  // the router and the replicas
	store    *http.Server    // the fleet's blob store
	recoverS float64         // wall time of service.New, summed over replicas
}

func listen(h http.Handler) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	srv := &http.Server{Handler: h}
	go srv.Serve(ln)
	return srv, "http://" + ln.Addr().String(), nil
}

// close stops the servers. With shutdown the managers are shut down
// gracefully first, while the store they checkpoint into is still up;
// otherwise they are abandoned, like a killed process.
func (s *system) close(shutdown bool) {
	for _, srv := range s.servers {
		srv.Close()
	}
	if shutdown {
		for _, m := range s.mgrs {
			m.Shutdown()
		}
	}
	if s.store != nil {
		s.store.Close()
	}
}

// installObserver wires the xeval sweep observer the way serve does (a
// duration histogram on the replica registry), plus the tracer's counts.
func installObserver(reg *obs.Registry, t *tracer) {
	h := func(workers int) *obs.Histogram {
		return reg.Histogram("pmwcm_xeval_sweep_seconds",
			"Universe-sweep duration in seconds, by effective worker count.",
			obs.DefBuckets, obs.Labels{"workers": strconv.Itoa(workers)})
	}
	if t == nil {
		xeval.SetObserver(func(chunks, workers int, seconds float64) { h(workers).Observe(seconds) })
		return
	}
	xeval.SetObserver(func(chunks, workers int, seconds float64) {
		h(workers).Observe(seconds)
		t.sweep(seconds)
	})
}

func (d *deployment) manager(store persist.Backend, reg *obs.Registry, t *tracer, wal bool, maxResident int) (*service.Manager, float64, error) {
	o := d.oracle
	if t != nil {
		o = oracle{inner: o, t: t}
		store = backend{Backend: store, t: t}
	}
	start := time.Now()
	mgr, err := service.New(service.Config{
		Data:        d.data,
		Source:      d.source(),
		Oracle:      o,
		Defaults:    service.SessionParams{Workers: runtime.NumCPU()},
		Store:       store,
		Metrics:     reg,
		WAL:         wal,
		MaxResident: maxResident,
	})
	return mgr, time.Since(start).Seconds(), err
}

func (d *deployment) replicaHandler(mgr *service.Manager, reg *obs.Registry, t *tracer) http.Handler {
	var h http.Handler = service.NewHandler(mgr)
	if t != nil {
		h = t.replicaHandler(h)
	}
	return obs.Middleware(reg, h, obs.MiddlewareOptions{Logger: d.logger, SessionInfo: mgr.SessionAccountant})
}

// startLocal runs `pmwcm serve -state-dir dir` (WAL on, metrics on) over
// dir, recovering whatever state it holds.
func (d *deployment) startLocal(dir string, t *tracer) (*system, error) {
	var fsys fault.FS = fault.OS
	if t != nil {
		fsys = tracedFS{FS: fault.OS, t: t}
	}
	store, err := persist.OpenFS(dir, fsys)
	if err != nil {
		return nil, err
	}
	reg := obs.NewRegistry()
	installObserver(reg, t)
	mgr, rec, err := d.manager(store, reg, t, true, 0)
	if err != nil {
		return nil, err
	}
	srv, base, err := listen(d.replicaHandler(mgr, reg, t))
	if err != nil {
		mgr.Shutdown()
		return nil, err
	}
	return &system{base: base, mgrs: []*service.Manager{mgr}, regs: []*obs.Registry{reg},
		servers: []*http.Server{srv}, recoverS: rec}, nil
}

// startFleet runs `pmwcm store -dir dir`, two `pmwcm serve -store-url`
// replicas with a residency cap, and `pmwcm route` in front of them.
func (d *deployment) startFleet(dir string, t *tracer) (sys *system, err error) {
	sys = &system{}
	defer func() {
		if err != nil {
			sys.close(false)
		}
	}()
	var fsys fault.FS = fault.OS
	if t != nil {
		fsys = tracedFS{FS: fault.OS, t: t}
	}
	bs, err := persist.NewBlobServer(dir, fsys)
	if err != nil {
		return nil, err
	}
	storeReg := obs.NewRegistry()
	bs.Instrument(storeReg)
	mux := http.NewServeMux()
	mux.Handle("/v1/stores/", bs.Handler())
	storeSrv, storeURL, err := listen(obs.Middleware(storeReg, mux, obs.MiddlewareOptions{Logger: d.logger}))
	if err != nil {
		return nil, err
	}
	sys.store = storeSrv

	var reps []route.Replica
	for i := 1; i <= clients; i++ {
		name := fmt.Sprintf("r%d", i)
		remote, err := persist.OpenRemote(storeURL+"/v1/stores/"+name, persist.RemoteOptions{})
		if err != nil {
			return nil, err
		}
		reg := obs.NewRegistry()
		if i == 1 {
			installObserver(reg, t)
		}
		mgr, rec, err := d.manager(remote, reg, t, false, d.w.maxResident)
		if err != nil {
			return nil, err
		}
		sys.recoverS += rec
		sys.mgrs = append(sys.mgrs, mgr)
		sys.regs = append(sys.regs, reg)
		srv, base, err := listen(d.replicaHandler(mgr, reg, t))
		if err != nil {
			return nil, err
		}
		sys.servers = append(sys.servers, srv)
		sys.replicas = append(sys.replicas, name)
		reps = append(reps, route.Replica{Name: name, URL: base})
	}

	routeReg := obs.NewRegistry()
	rt, err := route.New(reps, route.Options{StoreURL: storeURL, Metrics: routeReg})
	if err != nil {
		return nil, err
	}
	var h http.Handler = rt.Handler()
	if t != nil {
		h = t.routerHandler(h)
	}
	rtSrv, base, err := listen(obs.Middleware(routeReg, h, obs.MiddlewareOptions{Logger: d.logger}))
	if err != nil {
		return nil, err
	}
	sys.servers = append(sys.servers, rtSrv)
	sys.base = base
	return sys, nil
}

// start brings up the workload's system over dir.
func (d *deployment) start(dir string, t *tracer) (*system, error) {
	if d.w.fleet {
		return d.startFleet(dir, t)
	}
	return d.startLocal(dir, t)
}
