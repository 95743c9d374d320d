package main

// drive.go is the closed-loop client: two analysts over loopback HTTP, each
// owning a fixed set of sessions and sending its next query only after the
// last answer arrived.

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sync"
	"time"

	"repro/internal/convex"
)

// record is one query as the client saw it.
type record struct {
	session, q int
	spec       convex.Spec
	lat        time.Duration
	status     int
	answer     []float64
	top        bool
	cached     bool
}

func (r *record) ok() bool { return r.status == http.StatusOK }

// driver holds the client side of a run: the sessions' ids, who owns
// them, and where each session's query stream stands.
type driver struct {
	w      workload
	seed   int64
	client *http.Client
	ids    []string
	owner  [clients][]int // session indices per client, in visiting order
	next   []int          // next query index per session
}

func newDriver(w workload, seed int64) *driver {
	return &driver{
		w: w, seed: seed,
		client: &http.Client{
			Timeout:   60 * time.Second,
			Transport: &http.Transport{MaxIdleConnsPerHost: clients, MaxConnsPerHost: clients},
		},
		next: make([]int, w.sessions),
	}
}

func (d *driver) close() { d.client.CloseIdleConnections() }

func (d *driver) post(url string, body []byte) (int, []byte, error) {
	resp, err := d.client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

func (d *driver) get(url string) (int, []byte, error) {
	resp, err := d.client.Get(url)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// createSessions creates the workload's sessions in index order. Local
// sessions take the manager's sequential ids. Fleet sessions pin ids
// derived from the seed, taking candidates in order until each replica
// owns the same number, so placement and each replica's load are the same
// on every run.
func (d *driver) createSessions(sys *system) error {
	perReplica := map[string]int{}
	for cand := 0; len(d.ids) < d.w.sessions; cand++ {
		params := map[string]any{}
		for k, v := range d.w.params {
			params[k] = v
		}
		replica := 0
		if d.w.fleet {
			if cand > 64*d.w.sessions {
				return fmt.Errorf("no balanced placement among %d candidate ids", cand)
			}
			id := fmt.Sprintf("pb-%x-%d", uint64(d.seed), cand)
			code, body, err := d.get(sys.base + "/v1/route/" + id)
			if err != nil || code != http.StatusOK {
				return fmt.Errorf("placing %s: %d %s %v", id, code, body, err)
			}
			var pl struct{ Replica string }
			if err := json.Unmarshal(body, &pl); err != nil {
				return err
			}
			if perReplica[pl.Replica] >= d.w.sessions/clients {
				continue
			}
			perReplica[pl.Replica]++
			params["id"] = id
			for i, name := range sys.replicas {
				if name == pl.Replica {
					replica = i
				}
			}
		} else {
			replica = len(d.ids) % clients
		}
		body, _ := json.Marshal(params)
		code, resp, err := d.post(sys.base+"/v1/sessions", body)
		if err != nil || code != http.StatusCreated {
			return fmt.Errorf("creating session: %d %s %v", code, resp, err)
		}
		var st struct{ ID string }
		if err := json.Unmarshal(resp, &st); err != nil {
			return err
		}
		d.owner[replica] = append(d.owner[replica], len(d.ids))
		d.ids = append(d.ids, st.ID)
	}
	return nil
}

// touch reads every session's status once, in client order: in the fleet
// this pages each session in through the router.
func (d *driver) touch(sys *system) error {
	for c := range d.owner {
		for _, s := range d.owner[c] {
			code, body, err := d.get(sys.base + "/v1/sessions/" + d.ids[s])
			if err != nil || code != http.StatusOK {
				return fmt.Errorf("touching %s: %d %s %v", d.ids[s], code, body, err)
			}
		}
	}
	return nil
}

// run sends perSession queries to every session and returns the records
// per session in query order, plus the wall time of the phase. Each
// client visits its sessions in turn, burst queries at a time.
func (d *driver) run(sys *system, perSession int) ([][]record, time.Duration) {
	recs := make([][]record, d.w.sessions)
	for s := range recs {
		recs[s] = make([]record, 0, perSession)
	}
	burst := max(d.w.burst, 1)
	var wg sync.WaitGroup
	start := time.Now()
	for c := range d.owner {
		wg.Add(1)
		go func(mine []int) {
			defer wg.Done()
			for done := 0; done < perSession; done += burst {
				for _, s := range mine {
					for j := 0; j < burst; j++ {
						recs[s] = append(recs[s], d.query(sys.base, s))
					}
				}
			}
		}(d.owner[c])
	}
	wg.Wait()
	return recs, time.Since(start)
}

type queryReply struct {
	Answer []float64 `json:"answer"`
	Top    bool      `json:"top"`
	Cached bool      `json:"cached"`
}

func (d *driver) query(base string, s int) record {
	q := d.next[s]
	d.next[s]++
	r := record{session: s, q: q, spec: d.w.spec(d.seed, s, q)}
	body, _ := json.Marshal(r.spec)
	start := time.Now()
	code, resp, err := d.post(base+"/v1/sessions/"+d.ids[s]+"/query", body)
	r.lat = time.Since(start)
	if err != nil {
		return r
	}
	r.status = code
	if code == http.StatusOK {
		var rep queryReply
		if json.Unmarshal(resp, &rep) != nil {
			r.status = -1
			return r
		}
		r.answer, r.top, r.cached = rep.Answer, rep.Top, rep.Cached
	}
	return r
}

// digest hashes every released answer's bytes with its ⊤/⊥ and cache
// disposition, per session in query order, then over sessions in order.
func digest(recs [][]record) string {
	outer := sha256.New()
	var buf [8]byte
	for _, rs := range recs {
		h := sha256.New()
		for _, r := range rs {
			binary.LittleEndian.PutUint64(buf[:], uint64(r.q))
			h.Write(buf[:])
			h.Write([]byte{byte(r.status), byte(r.status >> 8), b2b(r.top), b2b(r.cached)})
			for _, v := range r.answer {
				binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
				h.Write(buf[:])
			}
		}
		outer.Write(h.Sum(nil))
	}
	return hex.EncodeToString(outer.Sum(nil))[:32]
}

func b2b(b bool) byte {
	if b {
		return 1
	}
	return 0
}

// join appends b's per-session records to a's.
func join(a, b [][]record) [][]record {
	out := make([][]record, len(a))
	for s := range a {
		out[s] = append(append([]record(nil), a[s]...), b[s]...)
	}
	return out
}
