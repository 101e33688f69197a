package main

import (
	"fmt"
	"time"

	"repro/internal/engine"
)

// routePool is the number of seeded C3-scale circuits a route workload
// cycles through. It is large enough that the quality means and the
// latency median vary little from seed to seed (README.md).
const routePool = 100

// runRoute runs route-timing (constrained) or route-area (the paper's
// unconstrained, area-only baseline): one caller routes the pool's
// circuits in order, over and over, until the time is up and every
// circuit has been routed once. Each operation starts from the circuit
// text and ends with the final delay; its checks run outside its timer.
func runRoute(o options, constrained bool) (*outcome, error) {
	cfg := engine.Config{UseConstraints: constrained}
	tl := &tally{}
	tl.record("golden tables", checkGolden())

	pl, setupS, err := setUp(o.clock, func() (*pool, error) {
		return makePool(o.seed, "route", "C3", routePool)
	}, samePool, func(*pool) {})
	if err != nil {
		return nil, err
	}
	// Operations start from the texts; the generated circuits are not
	// kept past this point, so they do not weigh on the load's memory.
	texts, props := pl.texts, propsOf(pl.ckts)

	recs := make([]*record, len(texts))
	var ops, repeat []span // every operation; those on already routed circuits
	var allocs []float64
	tr := newTracer(o.workload)

	deadline := time.Now().Add(time.Duration(o.seconds * float64(time.Second)))
	for i := 0; ; i++ {
		k := i % len(texts)
		if time.Now().After(deadline) && (o.trace || i >= len(texts)) {
			break
		}
		name := fmt.Sprintf("route circuit %d", k)
		if o.trace {
			tl.record(name, tr.pair(texts[k], cfg, recs, k, i%2 == 0))
			continue
		}
		m0 := mallocs()
		start := time.Now()
		r, err := routeOp(texts[k], cfg)
		sp := span{start, time.Now()}
		m1 := mallocs()
		if err == nil {
			err = keep(recs, k, r)
		}
		tl.record(name, err)
		if err != nil {
			continue
		}
		allocs = append(allocs, float64(m1-m0))
		ops = append(ops, sp)
		if i >= len(texts) {
			repeat = append(repeat, sp)
		}
	}

	out := &outcome{values: map[string]float64{}, tally: tl, info: map[string]any{}}
	out.info["workload_props"] = props
	if o.trace {
		out.values = tr.values()
		out.info["traced_circuits"] = len(tr.s["trace.overhead_ms"])
		return out, nil
	}
	sum := summarize(recs)
	lat, hit := o.clock.netAll(ops), o.clock.netAll(repeat)
	busy := 0.0
	for _, x := range lat {
		busy += x
	}
	out.info["deterministic"] = sum
	out.info["ops"] = map[string]int{"all": len(lat), "repeat": len(hit)}
	out.info["wall_ms"] = wallPercentiles(ops)
	if len(ops) > 0 {
		out.info["steal_share"] = o.clock.stolenShare(ops[0].start, time.Now())
	}
	v := out.values
	v["latency_ms_p50"] = quantile(lat, 0.5)
	v["latency_ms_p90"] = quantile(lat, 0.9)
	v["hit_ms_p50"] = quantile(hit, 0.5)
	v["hit_ms_p95"] = quantile(hit, 0.95)
	v["ops_per_s"] = float64(len(lat)) / (busy / 1000)
	v["allocs_per_op"] = mean(allocs)
	v["peak_rss_mb"] = peakRSSMB()
	v["setup_s"] = setupS
	v["delay_ps_mean"] = sum.DelayPs
	v["area_mm2_mean"] = sum.AreaMm2
	v["violations_mean"] = sum.Violations
	v["est_gap_pct"] = sum.GapPct
	return out, nil
}

// ms converts a duration to milliseconds.
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// wallPercentiles reports the raw wall-clock p50 and p90 of spans in ms,
// for comparison with the steal-net figures.
func wallPercentiles(spans []span) map[string]float64 {
	var xs []float64
	for _, s := range spans {
		xs = append(xs, ms(s.end.Sub(s.start)))
	}
	return map[string]float64{"p50": quantile(xs, 0.5), "p90": quantile(xs, 0.9)}
}
