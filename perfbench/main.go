// Command perfbench is the router's benchmark: it generates its inputs
// from a seed, runs one workload for a fixed time, checks every output,
// and prints one JSON result line. See README.md.
//
//	perfbench --workload route-timing --seed 1 --seconds 20 --trace 0
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/core" // also registers the default routing engine
	"repro/internal/experiment"
	"repro/internal/report"
)

// options are the command-line arguments.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	clock    *stealClock
}

// outcome is what a workload run produces.
type outcome struct {
	values map[string]float64 // by metric name
	tally  *tally
	info   map[string]any
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(options) (*outcome, error){
	"route-timing": func(o options) (*outcome, error) { return runRoute(o, true) },
	"route-area":   func(o options) (*outcome, error) { return runRoute(o, false) },
	"serve-mixed":  runServe,
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		o          options
		traceFlag  int
		cpuprofile string
	)
	flag.StringVar(&o.workload, "workload", "", "workload: route-timing, route-area or serve-mixed")
	flag.Int64Var(&o.seed, "seed", 1, "input seed; the same seed gives the same circuits")
	flag.Float64Var(&o.seconds, "seconds", 20, "how long the timed load runs")
	flag.IntVar(&traceFlag, "trace", 0, "1 runs the traced run and prints the per-layer metrics")
	flag.StringVar(&cpuprofile, "cpuprofile", "", "write a CPU profile here (samples carry workload and layer labels in traced runs)")
	flag.Parse()
	o.trace = traceFlag == 1
	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	runner, ok := workloads[o.workload]
	if !ok {
		return fail(fmt.Errorf("unknown workload %q", o.workload))
	}
	if traceFlag != 0 && traceFlag != 1 || o.seconds <= 0 {
		return fail(errors.New("--trace must be 0 or 1 and --seconds positive"))
	}
	if cpuprofile != "" {
		f, err := os.Create(cpuprofile)
		if err != nil {
			return fail(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			return fail(err)
		}
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "perfbench: cpu profile:", err)
			}
		}()
	}

	o.clock = startStealClock()
	out, err := runner(o)
	o.clock.close()
	if err != nil {
		return fail(err)
	}
	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	metrics := map[string]any{}
	for _, d := range defs {
		v := out.values[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fail(fmt.Errorf("metric %s is %v", d.name, v))
		}
		metrics[d.name] = map[string]any{"value": v, "unit": d.unit}
	}
	info := map[string]any{
		"workload": o.workload, "seed": o.seed, "seconds": o.seconds, "trace": traceFlag,
		"gomaxprocs": runtime.GOMAXPROCS(0), "nproc": runtime.NumCPU(), "go": runtime.Version(),
		"commit": commit(), "source_sha256": sourceHash(),
	}
	for k, v := range out.info {
		info[k] = v
	}
	t := out.tally
	if err := printJSON(map[string]any{"info": info}); err != nil {
		return fail(err)
	}
	if err := printJSON(map[string]any{
		"correct": t.failed == 0, "attempted": t.attempted, "failed": t.failed, "metrics": metrics,
	}); err != nil {
		return fail(err)
	}
	return 0
}

func printJSON(v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Printf("%s\n", b)
	return err
}

// tally counts checked operations. Every failure counts; none is
// skipped. It is safe for concurrent use.
type tally struct {
	mu        sync.Mutex
	attempted int
	failed    int
}

// record counts one operation, failed when err is non-nil; the first few
// failures are reported on standard error.
func (t *tally) record(what string, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	if err != nil {
		t.failed++
		if t.failed <= 5 {
			fmt.Fprintf(os.Stderr, "perfbench: FAILED %s: %v\n", what, err)
		}
	}
}

// checkGolden routes the paper's five data sets in both modes and
// compares Tables 1 and 3 with testdata/golden_tables.txt, as the
// repository's golden test does.
func checkGolden() error {
	want, err := os.ReadFile(filepath.Join("testdata", "golden_tables.txt"))
	if err != nil {
		return err
	}
	rows, err := experiment.RunAll(core.Config{})
	if err != nil {
		return err
	}
	if got := report.Table1(rows) + "\n" + report.Table3(rows); got != string(want) {
		return fmt.Errorf("tables differ from testdata/golden_tables.txt:\n%s", got)
	}
	return nil
}

// setUp runs build three times and returns the last result with the
// median of the three set-up times in seconds (net of steal). Every
// build must produce identical inputs (same, given the previous and
// current result), and all but the last are released with drop.
func setUp[T any](clock *stealClock, build func() (T, error), same func(a, b T) bool, drop func(T)) (T, float64, error) {
	var last T
	var spans []span
	for i := 0; i < 3; i++ {
		start := time.Now()
		cur, err := build()
		if err != nil {
			return last, 0, err
		}
		spans = append(spans, span{start, time.Now()})
		if i > 0 {
			if !same(last, cur) {
				return last, 0, errors.New("set-up is not deterministic: the same seed gave different inputs")
			}
			drop(last)
		}
		last = cur
	}
	// Collect the discarded set-ups now, so they do not count towards the
	// load's peak memory.
	runtime.GC()
	return last, median(clock.netAll(spans)) / 1000, nil
}

// commit names the source revision: PERFBENCH_COMMIT (set by run.sh
// from git when the checkout is a repository) or "unknown".
func commit() string {
	if c := os.Getenv("PERFBENCH_COMMIT"); c != "" {
		return c
	}
	return "unknown"
}

// sourceHash fingerprints the code under test (go.mod and every Go file
// under internal/ and perfbench/), so a result names its code even in a
// checkout without version control.
func sourceHash() string {
	h := sha256.New()
	var files []string
	for _, dir := range []string{"internal", "perfbench"} {
		_ = filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
			if err == nil && !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
				files = append(files, path)
			}
			return nil
		})
	}
	sort.Strings(files)
	for _, p := range append([]string{"go.mod"}, files...) {
		f, err := os.Open(p)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s\x00", p)
		_, _ = io.Copy(h, f)
		f.Close()
	}
	return hex.EncodeToString(h.Sum(nil))
}
