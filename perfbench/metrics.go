package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// metricDef names one reported metric. BENCHMARK.json lists the same
// names, units and directions (benchmark_test.go keeps them in step).
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
}

// endToEnd are the metrics a user of the router sees; printed with
// --trace 0. Every workload reports every one of them (README.md says
// what each means on each workload).
var endToEnd = []metricDef{
	{"latency_ms_p50", "ms", "lower"},
	{"latency_ms_p90", "ms", "lower"},
	{"hit_ms_p50", "ms", "lower"},
	{"hit_ms_p95", "ms", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"allocs_per_op", "count", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"setup_s", "s", "lower"},
	{"delay_ps_mean", "ps", "lower"},
	{"area_mm2_mean", "mm2", "lower"},
	{"violations_mean", "count", "lower"},
	{"est_gap_pct", "%", "lower"},
}

// timedLayers are the layers whose calls the traced run times; each
// yields <layer>_ms and <layer>.allocs.
var timedLayers = []string{
	"circuit.parse",
	"circuit.validate",
	"core.order",
	"feed.assign",
	"dgraph.new",
	"core.setup",
	"core.route",
	"chanroute.route",
	"experiment.final_delay",
	"routedb.build",
	"routedb.validate",
	"routedb.marshal",
	"render.svg",
	"render.layout",
	"report.timing",
}

// perLayer are the traced run's metrics; printed with --trace 1. A
// layer that does not run on a workload reports 0.
var perLayer = func() []metricDef {
	var defs []metricDef
	for _, l := range timedLayers {
		defs = append(defs, metricDef{l + "_ms", "ms", "lower"})
	}
	defs = append(defs,
		metricDef{"feed.added_pitches", "count", "lower"},
		metricDef{"core.initial_ms", "ms", "lower"},
		metricDef{"core.initial_select_ms", "ms", "lower"},
		metricDef{"core.deletions", "count", "lower"},
		metricDef{"core.scored_nets", "count", "lower"},
		metricDef{"core.scored_per_deletion", "count", "lower"},
		metricDef{"core.reused_ratio", "ratio", "higher"},
		metricDef{"core.recover_ms", "ms", "lower"},
		metricDef{"core.improve_delay_ms", "ms", "lower"},
		metricDef{"core.improve_area_ms", "ms", "lower"},
		metricDef{"core.reroutes", "count", "lower"},
		metricDef{"core.reroute_accept_ratio", "ratio", "higher"},
		metricDef{"core.timing_ms", "ms", "lower"},
		metricDef{"core.timing_cons", "count", "lower"},
		metricDef{"chanroute.tracks", "count", "lower"},
		metricDef{"routedb.bytes", "bytes", "lower"},
		metricDef{"service.submit_ms", "ms", "lower"},
		metricDef{"service.wait_ms", "ms", "lower"},
		metricDef{"service.fetch_ms", "ms", "lower"},
		metricDef{"service.phases_ms", "ms", "lower"},
		metricDef{"service.cache_hit_ratio", "ratio", "higher"},
		metricDef{"trace.overhead_ms", "ms", "lower"},
		metricDef{"trace.overhead_pct", "%", "lower"},
	)
	for _, l := range timedLayers {
		defs = append(defs, metricDef{l + ".allocs", "count", "lower"})
	}
	return defs
}()

// samples collects per-call observations by metric name.
type samples map[string][]float64

func (s samples) add(name string, v float64) { s[name] = append(s[name], v) }

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between closest ranks; 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// mallocs returns the process's cumulative heap allocation count.
// ReadMemStats flushes every P's cache, so per-call deltas are exact.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// peakRSSMB returns the process's peak resident set (VmHWM) in MB, or
// the memory obtained from the OS where /proc is unavailable.
func peakRSSMB() float64 {
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}
