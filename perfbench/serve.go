package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/routedb"
	"repro/internal/service"
)

const (
	// serveBases is the number of seeded C1-scale circuits generated at
	// set-up. Fresh job i submits variant i/serveBases of base
	// i%serveBases (see variantText), so every fresh job is a circuit
	// the server has not seen, however many jobs the run completes.
	serveBases = 512
	// serveRef is the number of fresh circuits (the first ones the
	// clients submit) also routed in-process before the load: their
	// records give the quality metrics and must match the routing
	// databases the server returns for them.
	serveRef = 96
	// serveClients closed-loop clients share the server.
	serveClients = 2
	// warmupJobs are run by the clients together before the timed load.
	// They are checked but left out of every figure. The service keeps
	// its last 1024 finished jobs by default, so its heap grows until
	// that many have finished; after the warm-up the timed load meets a
	// heap, and so a garbage-collection rate, that no longer grows.
	warmupJobs = 1100
	// hitEvery: every hitEvery-th job of a client resubmits a circuit
	// that client already finished, drawn from its last recentJobs.
	hitEvery   = 4
	recentJobs = 4
)

// runServe runs serve-mixed: an in-process routing service with default
// options, reached over loopback HTTP by serveClients closed-loop
// clients. Three jobs in four submit a fresh circuit and fetch its
// routing database; the fourth resubmits a circuit the client already
// finished, which the result cache answers, and fetches every artifact
// the viewer shows.
func runServe(o options) (*outcome, error) {
	cfg := engine.Config{UseConstraints: service.DefaultJobConfig().UseConstraints}
	tl := &tally{}
	tl.record("golden tables", checkGolden())

	type env struct {
		pl  *pool
		srv *server
	}
	e, setupS, err := setUp(o.clock, func() (env, error) {
		pl, err := makePool(o.seed, "serve", "C1", serveBases)
		if err != nil {
			return env{}, err
		}
		srv, err := startServer()
		return env{pl, srv}, err
	}, func(a, b env) bool { return samePool(a.pl, b.pl) }, func(e env) {
		if err := e.srv.stop(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: stop set-up server:", err)
		}
	})
	if err != nil {
		return nil, err
	}
	pl, srv := e.pl, e.srv

	// Reference pass: route the first serveRef fresh circuits in-process.
	tr := newTracer(o.workload)
	refs := make([]*record, serveRef)
	for k := range refs {
		name := fmt.Sprintf("reference circuit %d", k)
		if o.trace {
			tl.record(name, tr.pair(pl.texts[k], cfg, refs, k, k%2 == 0))
			continue
		}
		r, err := routeOp(pl.texts[k], cfg)
		if err == nil {
			err = keep(refs, k, r)
		}
		tl.record(name, err)
	}

	ld := &load{o: o, pl: pl, refs: refs, tl: tl, url: srv.url}
	clients := make([]*client, serveClients)
	for id := range clients {
		clients[id] = ld.newClient(id)
	}
	drive := func(more func() bool, warm bool) {
		var wg sync.WaitGroup
		for _, c := range clients {
			wg.Add(1)
			go func() {
				defer wg.Done()
				c.run(more, warm)
			}()
		}
		wg.Wait()
	}
	warmStart := time.Now()
	drive(func() bool { return ld.warmed.Add(1) <= warmupJobs }, true)
	warmS := time.Since(warmStart).Seconds()
	m0 := mallocs()
	start := time.Now()
	deadline := start.Add(time.Duration(o.seconds * float64(time.Second)))
	drive(func() bool { return time.Now().Before(deadline) }, false)
	end := time.Now()
	m1 := mallocs()
	for _, c := range clients {
		c.hc.CloseIdleConnections()
	}
	if err := srv.stop(); err != nil {
		return nil, fmt.Errorf("stop server: %w", err)
	}

	out := &outcome{values: map[string]float64{}, tally: tl, info: map[string]any{}}
	jobs := ld.jobs.Load()
	hitShare := 0.0
	if jobs > 0 {
		hitShare = float64(ld.cached.Load()) / float64(jobs)
	}
	out.info["workload_props"] = propsOf(pl.ckts)
	out.info["jobs"] = map[string]int64{"fresh": ld.freshJobs.Load(), "resubmitted": ld.hitJobs.Load(), "cached": ld.cached.Load()}
	out.info["warmup"] = map[string]any{"jobs": warmupJobs, "seconds": warmS}
	out.info["cache_hit_share"] = hitShare
	out.info["steal_share"] = o.clock.stolenShare(start, end)
	v := out.values
	if o.trace {
		v = tr.values()
		out.values = v
		v["service.submit_ms"] = median(ld.submit)
		v["service.wait_ms"] = median(ld.wait)
		v["service.fetch_ms"] = median(ld.fetch)
		v["service.phases_ms"] = median(ld.phases)
		v["service.cache_hit_ratio"] = hitShare
		return out, nil
	}
	sum := summarize(refs)
	out.info["deterministic"] = sum
	fresh, hit := o.clock.netAll(ld.fresh), o.clock.netAll(ld.hit)
	out.info["wall_ms"] = wallPercentiles(ld.fresh)
	v["latency_ms_p50"] = quantile(fresh, 0.5)
	v["latency_ms_p90"] = quantile(fresh, 0.9)
	v["hit_ms_p50"] = quantile(hit, 0.5)
	v["hit_ms_p95"] = quantile(hit, 0.95)
	v["ops_per_s"] = float64(jobs) / (o.clock.netAll([]span{{start, end}})[0] / 1000)
	if jobs > 0 {
		v["allocs_per_op"] = float64(m1-m0) / float64(jobs)
	}
	v["peak_rss_mb"] = peakRSSMB()
	v["setup_s"] = setupS
	v["delay_ps_mean"] = sum.DelayPs
	v["area_mm2_mean"] = sum.AreaMm2
	v["violations_mean"] = sum.Violations
	v["est_gap_pct"] = sum.GapPct
	return out, nil
}

// server is the service under test behind a loopback HTTP listener.
type server struct {
	svc    *service.Server
	hs     *http.Server
	url    string
	served chan error
}

// startServer starts a service with default options and returns once
// it answers its health probe.
func startServer() (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	svc := service.New(service.Options{})
	s := &server{
		svc: svc, hs: &http.Server{Handler: svc.Handler()},
		url: "http://" + ln.Addr().String(), served: make(chan error, 1),
	}
	go func() { s.served <- s.hs.Serve(ln) }()
	hc := newHTTPClient()
	defer hc.CloseIdleConnections()
	var body bytes.Buffer
	if err := get(hc, s.url+"/healthz", &body); err != nil {
		return nil, errors.Join(err, s.stop())
	}
	return s, nil
}

// stop shuts the listener and the service down and waits for both.
func (s *server) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	return errors.Join(err, s.svc.Shutdown(ctx))
}

func newHTTPClient() *http.Client {
	return &http.Client{
		Timeout:   60 * time.Second,
		Transport: &http.Transport{Proxy: nil, MaxIdleConnsPerHost: 4, DisableCompression: true},
	}
}

// load is the state the clients share.
type load struct {
	o    options
	pl   *pool
	refs []*record
	tl   *tally
	url  string

	next                        atomic.Int64 // next fresh circuit index
	warmed                      atomic.Int64 // warm-up jobs started
	jobs, cached                atomic.Int64 // timed jobs only, as are the counts and samples below
	freshJobs, hitJobs          atomic.Int64
	mu                          sync.Mutex
	fresh, hit                  []span    // job intervals
	submit, wait, fetch, phases []float64 // fresh-job stages, ms
}

// client is one closed-loop client: it sends its next job only after
// the previous one's last artifact byte has arrived.
type client struct {
	ld       *load
	id       int
	hc       *http.Client
	rng      *rand.Rand
	db, art  bytes.Buffer  // response bodies, reused so the client allocates little
	finished []finishedJob // its last recentJobs fresh jobs, most recent last
	k        int           // jobs run, warm-up included
}

type finishedJob struct {
	idx  int
	text string
	fp   [32]byte
}

func (ld *load) newClient(id int) *client {
	return &client{
		ld: ld, id: id, hc: newHTTPClient(),
		rng: rand.New(rand.NewSource(streamSeed(ld.o.seed, fmt.Sprintf("client/%d", id)))),
	}
}

// run sends jobs while more reports true. Warm-up jobs are checked
// but not counted.
func (c *client) run(more func() bool, warm bool) {
	for ; more(); c.k++ {
		if c.k%hitEvery == hitEvery-1 && len(c.finished) > 0 {
			n := min(recentJobs, len(c.finished))
			j := c.finished[len(c.finished)-1-c.rng.Intn(n)]
			err := c.resubmit(j, warm)
			c.ld.tl.record(fmt.Sprintf("client %d resubmit of circuit %d", c.id, j.idx), err)
			continue
		}
		idx := int(c.ld.next.Add(1) - 1)
		err := c.submitFresh(idx, warm)
		c.ld.tl.record(fmt.Sprintf("client %d fresh circuit %d", c.id, idx), err)
	}
}

// freshText returns the text of fresh circuit idx.
func (ld *load) freshText(idx int) (string, error) {
	b, v := idx%len(ld.pl.ckts), idx/len(ld.pl.ckts)
	if v == 0 {
		return ld.pl.texts[b], nil
	}
	return variantText(ld.pl.ckts[b], ld.o.seed, b, v)
}

// submitFresh runs one fresh job: POST, wait on the event stream, fetch
// the routing database. The database must validate, and for the
// reference circuits match the in-process routing byte for byte.
func (c *client) submitFresh(idx int, warm bool) error {
	text, err := c.ld.freshText(idx)
	if err != nil {
		return err
	}
	start := time.Now()
	id, cached, err := c.post(text)
	if err != nil {
		return err
	}
	tSubmit := time.Now()
	st, err := c.wait(id)
	if err != nil {
		return err
	}
	tWait := time.Now()
	c.label("service.fetch", func() { err = get(c.hc, c.ld.url+"/jobs/"+id+"/routedb", &c.db) })
	if err != nil {
		return err
	}
	end := time.Now()

	if !warm {
		c.ld.jobs.Add(1)
		c.ld.freshJobs.Add(1)
	}
	if cached {
		return fmt.Errorf("job %s: a fresh circuit was answered from the cache", id)
	}
	if st.State != service.Done {
		return fmt.Errorf("job %s ended %s: %s", id, st.State, st.Error)
	}
	fp, err := checkDB(c.db.Bytes())
	if err != nil {
		return fmt.Errorf("job %s: %w", id, err)
	}
	if idx < len(c.ld.refs) && c.ld.refs[idx] != nil && c.ld.refs[idx].fp != fp {
		return fmt.Errorf("job %s: routing database differs from the in-process routing of the same circuit", id)
	}
	if len(c.finished) == recentJobs {
		c.finished = append(c.finished[:0], c.finished[1:]...)
	}
	c.finished = append(c.finished, finishedJob{idx: idx, text: text, fp: fp})
	if warm {
		return nil
	}
	var phases float64
	for _, p := range st.Phases {
		phases += p.DurationMs
	}
	ld := c.ld
	ld.mu.Lock()
	ld.fresh = append(ld.fresh, span{start, end})
	ld.submit = append(ld.submit, ms(tSubmit.Sub(start)))
	ld.wait = append(ld.wait, ms(tWait.Sub(tSubmit)))
	ld.fetch = append(ld.fetch, ms(end.Sub(tWait)))
	ld.phases = append(ld.phases, phases)
	ld.mu.Unlock()
	return nil
}

// resubmit sends a finished circuit again and fetches every artifact a
// viewer shows. The routing database must be the one the first job got.
func (c *client) resubmit(j finishedJob, warm bool) error {
	start := time.Now()
	id, cached, err := c.post(j.text)
	if err != nil {
		return err
	}
	st, err := c.wait(id)
	if err != nil {
		return err
	}
	c.label("service.fetch", func() {
		if err = get(c.hc, c.ld.url+"/jobs/"+id+"/routedb", &c.db); err != nil {
			return
		}
		for _, kind := range []string{"svg", "timing", "layout"} {
			if err = get(c.hc, c.ld.url+"/jobs/"+id+"/"+kind, &c.art); err != nil {
				return
			}
			if c.art.Len() == 0 {
				err = fmt.Errorf("job %s: empty %s", id, kind)
				return
			}
		}
	})
	if err != nil {
		return err
	}
	end := time.Now()

	if !warm {
		c.ld.jobs.Add(1)
		c.ld.hitJobs.Add(1)
		if cached {
			c.ld.cached.Add(1)
		}
	}
	if st.State != service.Done {
		return fmt.Errorf("job %s ended %s: %s", id, st.State, st.Error)
	}
	fp, err := checkDB(c.db.Bytes())
	if err != nil {
		return fmt.Errorf("job %s: %w", id, err)
	}
	if fp != j.fp {
		return fmt.Errorf("job %s: resubmitted circuit %d got a different routing database", id, j.idx)
	}
	if !warm {
		c.ld.mu.Lock()
		c.ld.hit = append(c.ld.hit, span{start, end})
		c.ld.mu.Unlock()
	}
	return nil
}

// label runs f under the client's profile labels in a traced run.
func (c *client) label(layer string, f func()) {
	if !c.ld.o.trace {
		f()
		return
	}
	pprof.Do(context.Background(), pprof.Labels("workload", c.ld.o.workload, "layer", layer), func(context.Context) { f() })
}

// post submits a circuit with the default job config.
func (c *client) post(text string) (id string, cached bool, err error) {
	c.label("service.submit", func() {
		var body []byte
		if body, err = json.Marshal(service.SubmitRequest{Circuit: text}); err != nil {
			return
		}
		var resp *http.Response
		if resp, err = c.hc.Post(c.ld.url+"/jobs", "application/json", bytes.NewReader(body)); err != nil {
			return
		}
		defer resp.Body.Close()
		var rep struct {
			ID     string `json:"id"`
			Cached bool   `json:"cached"`
		}
		if resp.StatusCode != http.StatusAccepted {
			b, _ := io.ReadAll(resp.Body)
			err = fmt.Errorf("POST /jobs: %s: %s", resp.Status, bytes.TrimSpace(b))
			return
		}
		if err = json.NewDecoder(resp.Body).Decode(&rep); err == nil {
			id, cached = rep.ID, rep.Cached
		}
	})
	return id, cached, err
}

// wait follows the job's event stream to its end and returns the last
// status it carried.
func (c *client) wait(id string) (st service.Status, err error) {
	c.label("service.wait", func() {
		var resp *http.Response
		if resp, err = c.hc.Get(c.ld.url + "/jobs/" + id + "/events"); err != nil {
			return
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("GET events of %s: %s", id, resp.Status)
			return
		}
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 64<<10), 8<<20)
		var last []byte
		for sc.Scan() {
			if data, ok := bytes.CutPrefix(sc.Bytes(), []byte("data: ")); ok {
				last = append(last[:0], data...)
			}
		}
		if err = sc.Err(); err != nil {
			return
		}
		err = json.Unmarshal(last, &st)
	})
	return st, err
}

// get fetches a URL into body; any status but 200 is an error.
func get(hc *http.Client, url string, body *bytes.Buffer) error {
	resp, err := hc.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body.Reset()
	if _, err := body.ReadFrom(resp.Body); err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return nil
}

// checkDB validates a fetched routing database and returns its
// fingerprint.
func checkDB(b []byte) ([32]byte, error) {
	db, err := routedb.Read(bytes.NewReader(b))
	if err != nil {
		return [32]byte{}, err
	}
	if err := db.Validate(); err != nil {
		return [32]byte{}, err
	}
	return sha256.Sum256(b), nil
}
