package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"repro/internal/chanroute"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/dgraph"
	"repro/internal/engine"
	"repro/internal/experiment"
	"repro/internal/feed"
	"repro/internal/render"
	"repro/internal/report"
	"repro/internal/routedb"
	"repro/internal/verify"
)

// routed is one finished operation of the bgr-route path.
type routed struct {
	res   *engine.Result
	cr    *chanroute.Result
	delay float64 // worst constrained delay after channel routing, ps
	viol  int
}

// routeOp runs one operation the way bgr-route does, starting from the
// circuit text: circuit.Parse, engine.Route with the default engine,
// chanroute.RouteWith (left-edge) and experiment.FinalDelay.
func routeOp(text string, cfg engine.Config) (*routed, error) {
	ckt, err := circuit.Parse(strings.NewReader(text))
	if err != nil {
		return nil, err
	}
	res, err := engine.Route(context.Background(), "", ckt, cfg)
	if err != nil {
		return nil, err
	}
	cr, err := chanroute.RouteWith(res.Ckt, res.Graphs, chanroute.LeftEdge)
	if err != nil {
		return nil, err
	}
	delay, viol, err := experiment.FinalDelay(res.Ckt, cr.NetLenUm)
	if err != nil {
		return nil, err
	}
	return &routed{res: res, cr: cr, delay: delay, viol: viol}, nil
}

// checkRouted audits a finished operation with the structural verifiers
// and returns its routedb fingerprint (SHA-256 of the marshaled
// database). The vertical-constraint waivers the channel solver reports
// are notes, not errors, as in bgr-route -verify.
func checkRouted(r *routed) ([32]byte, error) {
	if v := verify.Routing(r.res); !v.OK() {
		return [32]byte{}, fmt.Errorf("verify.Routing: %d problems, first %v", len(v.Problems), v.Problems[0])
	}
	for _, p := range verify.Channels(r.cr).Problems {
		if p.Rule != "chan-vcg-waived" {
			return [32]byte{}, fmt.Errorf("verify.Channels: %v", p)
		}
	}
	db, err := routedb.Build(r.res, r.cr)
	if err != nil {
		return [32]byte{}, err
	}
	if err := db.Validate(); err != nil {
		return [32]byte{}, err
	}
	b, err := routedb.Marshal(db)
	if err != nil {
		return [32]byte{}, err
	}
	return sha256.Sum256(b), nil
}

// detCounts are the router's deterministic work counters for one
// circuit, summed over the routing phases.
type detCounts struct {
	Deletions  int `json:"deletions"`
	ScoredNets int `json:"scored_nets"`
	Reroutes   int `json:"reroutes"`
	Accepted   int `json:"accepted"`
	TimingCons int `json:"timing_cons"`
}

func countsOf(res *engine.Result) detCounts {
	var c detCounts
	for _, ps := range res.Phases {
		c.Deletions += ps.Deletions
		c.ScoredNets += ps.ScoredNets
		c.Reroutes += ps.Reroutes
		c.Accepted += ps.Accepted
		c.TimingCons += ps.TimingCons
	}
	return c
}

// record is what the first routing of a circuit in a run establishes;
// every later routing of the same circuit must reproduce it.
type record struct {
	fp      [32]byte
	counts  detCounts
	delayPs float64
	estPs   float64
	areaMm2 float64
	viol    int
	gapPct  float64 // (final - estimated) / final delay, percent
}

func recordOf(r *routed, fp [32]byte) record {
	rec := record{
		fp: fp, counts: countsOf(r.res),
		delayPs: r.delay, areaMm2: r.cr.AreaMm2, viol: r.viol,
	}
	if r.delay > 0 {
		rec.gapPct = (r.delay - r.res.Delay) / r.delay * 100
	}
	return rec
}

// sameRouting reports how a repeat routing differs from the circuit's
// first one, or nil when it is identical.
func (rec record) sameRouting(again record) error {
	if again.fp != rec.fp {
		return fmt.Errorf("routedb fingerprint changed between routings of one circuit")
	}
	if again.counts != rec.counts {
		return fmt.Errorf("work counters changed between routings of one circuit: %+v then %+v", rec.counts, again.counts)
	}
	return nil
}

// summary aggregates the records of a run's reference set.
type summary struct {
	Counts     detCounts `json:"counts"`
	DelayPs    float64   `json:"delay_ps_mean"`
	AreaMm2    float64   `json:"area_mm2_mean"`
	Violations float64   `json:"violations_mean"`
	GapPct     float64   `json:"est_gap_pct"`
}

// summarize aggregates the circuits routed so far (nil records are
// circuits not yet routed).
func summarize(recs []*record) summary {
	var s summary
	n := 0
	for _, r := range recs {
		if r == nil {
			continue
		}
		n++
		s.Counts.Deletions += r.counts.Deletions
		s.Counts.ScoredNets += r.counts.ScoredNets
		s.Counts.Reroutes += r.counts.Reroutes
		s.Counts.Accepted += r.counts.Accepted
		s.Counts.TimingCons += r.counts.TimingCons
		s.DelayPs += r.delayPs
		s.AreaMm2 += r.areaMm2
		s.Violations += float64(r.viol)
		s.GapPct += r.gapPct
	}
	if n > 0 {
		s.DelayPs /= float64(n)
		s.AreaMm2 /= float64(n)
		s.Violations /= float64(n)
		s.GapPct /= float64(n)
	}
	return s
}

// tracer times calls into the router's layers from outside, for the
// traced run: wall time and heap allocations per call, each call
// wrapped in pprof.Do with workload and layer labels so a CPU profile
// taken with --cpuprofile splits by layer.
type tracer struct {
	workload string
	s        samples
	// Sums behind the ratio metrics, which are taken over all traced
	// operations rather than per operation.
	initDeletions, initScored, initReused, reroutes, accepted int
}

func newTracer(workload string) *tracer { return &tracer{workload: workload, s: samples{}} }

// values returns the per-layer metrics: the median of each sampled
// metric, and the ratio metrics over all traced operations.
func (t *tracer) values() map[string]float64 {
	v := map[string]float64{}
	for name, xs := range t.s {
		v[name] = median(xs)
	}
	ratio := func(num, den int) float64 {
		if den == 0 {
			return 0
		}
		return float64(num) / float64(den)
	}
	v["core.scored_per_deletion"] = ratio(t.initScored, t.initDeletions)
	v["core.reused_ratio"] = ratio(t.initReused, t.initScored+t.initReused)
	v["core.reroute_accept_ratio"] = ratio(t.accepted, t.reroutes)
	return v
}

// measure runs f as one call into layer and returns its wall time (ms)
// and allocation count without recording them.
func (t *tracer) measure(layer string, f func()) (wallMs, allocs float64) {
	pprof.Do(context.Background(), pprof.Labels("workload", t.workload, "layer", layer), func(context.Context) {
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		a0 := m.Mallocs
		start := time.Now()
		f()
		wallMs = ms(time.Since(start))
		runtime.ReadMemStats(&m)
		allocs = float64(m.Mallocs - a0)
	})
	return wallMs, allocs
}

// call runs f as one call into layer and records <layer>_ms and
// <layer>.allocs.
func (t *tracer) call(layer string, f func()) (wallMs, allocs float64) {
	wallMs, allocs = t.measure(layer, f)
	t.s.add(layer+"_ms", wallMs)
	t.s.add(layer+".allocs", allocs)
	return wallMs, allocs
}

// pair routes circuit k twice, once plainly and once with every layer
// timed (in alternating order, so neither always runs warm), checks
// both, then times the setup and payload layers on their own. The
// difference between the two operations' latencies is the tracing
// overhead.
func (t *tracer) pair(text string, cfg engine.Config, recs []*record, k int, plainFirst bool) error {
	var plainMs, tracedMs float64
	var traced *routed
	plain := func() error {
		start := time.Now()
		r, err := routeOp(text, cfg)
		plainMs = ms(time.Since(start))
		if err != nil {
			return err
		}
		return keep(recs, k, r)
	}
	timed := func() error {
		start := time.Now()
		r, err := t.routeOpTraced(text, cfg)
		tracedMs = ms(time.Since(start))
		if err != nil {
			return err
		}
		traced = r
		return keep(recs, k, r)
	}
	steps := []func() error{plain, timed}
	if !plainFirst {
		steps[0], steps[1] = timed, plain
	}
	for _, step := range steps {
		if err := step(); err != nil {
			return err
		}
	}
	t.s.add("trace.overhead_ms", tracedMs-plainMs)
	t.s.add("trace.overhead_pct", (tracedMs-plainMs)/plainMs*100)
	if err := t.probeSetup(text, cfg); err != nil {
		return err
	}
	return t.probePayload(traced)
}

// keep checks a finished operation on circuit k and either records it
// as the circuit's first routing or compares it with that record.
func keep(recs []*record, k int, r *routed) error {
	fp, err := checkRouted(r)
	if err != nil {
		return err
	}
	rec := recordOf(r, fp)
	if recs[k] == nil {
		recs[k] = &rec
		return nil
	}
	return recs[k].sameRouting(rec)
}

// routeOpTraced is routeOp with every call timed as its own layer. The
// per-phase figures come from the Phases engine.Route returns.
func (t *tracer) routeOpTraced(text string, cfg engine.Config) (*routed, error) {
	var (
		ckt *circuit.Circuit
		res *engine.Result
		cr  *chanroute.Result
		r   routed
		err error
	)
	if t.call("circuit.parse", func() { ckt, err = circuit.Parse(strings.NewReader(text)) }); err != nil {
		return nil, err
	}
	if t.call("core.route", func() { res, err = engine.Route(context.Background(), "", ckt, cfg) }); err != nil {
		return nil, err
	}
	if t.call("chanroute.route", func() { cr, err = chanroute.RouteWith(res.Ckt, res.Graphs, chanroute.LeftEdge) }); err != nil {
		return nil, err
	}
	if t.call("experiment.final_delay", func() { r.delay, r.viol, err = experiment.FinalDelay(res.Ckt, cr.NetLenUm) }); err != nil {
		return nil, err
	}
	r.res, r.cr = res, cr
	t.addPhases(res.Phases)
	tracks := 0
	for _, ch := range cr.Channels {
		tracks += ch.Tracks
	}
	t.s.add("chanroute.tracks", float64(tracks))
	return &r, nil
}

// addPhases records the routing-phase metrics of one engine.Route call.
func (t *tracer) addPhases(phases []engine.PhaseStat) {
	var recover, improveDelay, improveArea, timing float64
	var reroutes, timingCons int
	for _, ps := range phases {
		switch ps.Name {
		case "initial":
			t.s.add("core.initial_ms", ms(ps.Duration))
			t.s.add("core.initial_select_ms", ms(ps.SelectDuration))
			t.s.add("core.deletions", float64(ps.Deletions))
			t.s.add("core.scored_nets", float64(ps.ScoredNets))
			t.initDeletions += ps.Deletions
			t.initScored += ps.ScoredNets
			t.initReused += ps.ReusedNets
		case "recover-violations":
			recover += ms(ps.Duration)
		case "improve-delay":
			improveDelay += ms(ps.Duration)
		case "improve-area":
			improveArea += ms(ps.Duration)
		}
		reroutes += ps.Reroutes
		t.reroutes += ps.Reroutes
		t.accepted += ps.Accepted
		timing += ms(ps.TimingDuration)
		timingCons += ps.TimingCons
	}
	t.s.add("core.recover_ms", recover)
	t.s.add("core.improve_delay_ms", improveDelay)
	t.s.add("core.improve_area_ms", improveArea)
	t.s.add("core.reroutes", float64(reroutes))
	t.s.add("core.timing_ms", timing)
	t.s.add("core.timing_cons", float64(timingCons))
}

// probeSetup times the layers engine.Route runs before its first phase,
// which its Phases do not cover: validation, the slack net order,
// feedthrough assignment and the delay-graph build, each called on its
// own. core.setup is the rest of core.NewProbe, which runs all of them
// and then builds the routing state: its time minus theirs.
func (t *tracer) probeSetup(text string, cfg engine.Config) error {
	ckt, err := circuit.Parse(strings.NewReader(text))
	if err != nil {
		return err
	}
	var order []int
	var fr *feed.Result
	vMs, vAllocs := t.call("circuit.validate", func() { err = ckt.Validate() })
	if err != nil {
		return err
	}
	oMs, oAllocs := t.call("core.order", func() { order, err = slackOrder(ckt, cfg.UseConstraints) })
	if err != nil {
		return err
	}
	fMs, fAllocs := t.call("feed.assign", func() { fr, err = feed.Assign(ckt, order) })
	if err != nil {
		return err
	}
	t.s.add("feed.added_pitches", float64(fr.AddedPitches))
	dMs, dAllocs := t.call("dgraph.new", func() { _, err = dgraph.New(fr.Ckt) })
	if err != nil {
		return err
	}
	pMs, pAllocs := t.measure("core.setup", func() {
		_, err = core.NewProbe(ckt, core.Config{UseConstraints: cfg.UseConstraints})
	})
	if err != nil {
		return err
	}
	t.s.add("core.setup_ms", pMs-vMs-oMs-fMs-dMs)
	t.s.add("core.setup.allocs", pAllocs-vAllocs-oAllocs-fAllocs-dAllocs)
	return nil
}

// slackOrder is the feedthrough-assignment net order engine.Route uses
// by default: ascending static slack from a zero-interconnect delay
// graph when constraints are on, index order (nil) otherwise.
func slackOrder(ckt *circuit.Circuit, constrained bool) ([]int, error) {
	if !constrained || len(ckt.Cons) == 0 {
		return nil, nil
	}
	dg, err := dgraph.New(ckt)
	if err != nil {
		return nil, err
	}
	slacks := dg.NetSlacks()
	order := make([]int, len(slacks))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return slacks[order[a]] < slacks[order[b]] })
	return order, nil
}

// probePayload times the layers the routing service adds after routing
// to build a job's payload, called the way the service calls them: the
// routing database (build, validate, marshal), the SVG drawing, the
// ASCII layout and the timing report.
func (t *tracer) probePayload(r *routed) error {
	var (
		db  *routedb.DB
		b   []byte
		err error
	)
	if t.call("routedb.build", func() { db, err = routedb.Build(r.res, r.cr) }); err != nil {
		return err
	}
	if t.call("routedb.validate", func() { err = db.Validate() }); err != nil {
		return err
	}
	if t.call("routedb.marshal", func() { b, err = routedb.Marshal(db) }); err != nil {
		return err
	}
	t.s.add("routedb.bytes", float64(len(b)))
	var svg, layout, timing string
	t.call("render.svg", func() { svg = render.SVG(r.res, r.cr) })
	t.call("render.layout", func() { layout = render.Layout(r.res) })
	if t.call("report.timing", func() { timing, err = timingReport(r) }); err != nil {
		return err
	}
	if svg == "" || layout == "" || timing == "" {
		return fmt.Errorf("empty payload artifact")
	}
	return nil
}

// timingReport builds the service's timing artifact: the timing report
// and slack histogram over post-channel-routing lengths.
func timingReport(r *routed) (string, error) {
	dg, err := dgraph.New(r.res.Ckt)
	if err != nil {
		return "", err
	}
	tm := dg.NewTiming()
	tm.SetLumped(r.cr.NetLenUm)
	tm.Analyze()
	return report.TimingReport(r.res.Ckt, tm, 3) + "\n" + report.SlackHistogram(r.res.Ckt, tm, 8), nil
}
