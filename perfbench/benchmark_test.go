package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/engine"
)

// TestRepeatSameSeed is the benchmark's repeat check: two runs with the
// same seed see the same circuits and produce the same deterministic
// counts and quality figures; another seed gives another circuit set.
func TestRepeatSameSeed(t *testing.T) {
	const seed, n = 7, 2
	a, err := makePool(seed, "route", "C3", n)
	if err != nil {
		t.Fatal(err)
	}
	b, err := makePool(seed, "route", "C3", n)
	if err != nil {
		t.Fatal(err)
	}
	if !samePool(a, b) {
		t.Fatal("the same seed generated different circuits")
	}
	other, err := makePool(seed+1, "route", "C3", n)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.texts {
		if a.texts[i] == other.texts[i] {
			t.Fatalf("seeds %d and %d generated the same circuit %d", seed, seed+1, i)
		}
	}

	for _, constrained := range []bool{true, false} {
		cfg := engine.Config{UseConstraints: constrained}
		run := func() summary {
			recs := make([]*record, n)
			for k, text := range a.texts {
				r, err := routeOp(text, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if err := keep(recs, k, r); err != nil {
					t.Fatal(err)
				}
			}
			return summarize(recs)
		}
		first, second := run(), run()
		if first != second {
			t.Errorf("constrained=%v: runs with one seed differ:\n%+v\n%+v", constrained, first, second)
		}
		if first.Counts.Deletions == 0 || first.Counts.ScoredNets == 0 || first.DelayPs == 0 {
			t.Errorf("constrained=%v: empty counts %+v", constrained, first)
		}
		if constrained && (first.Counts.Reroutes == 0 || first.Counts.TimingCons == 0) {
			t.Errorf("constrained run did no timing-driven work: %+v", first.Counts)
		}
	}
}

// TestServeVariants checks that fresh serve circuits are reproducible
// and distinct: variant v of a base is the same text every time, and
// differs from the base and from every other variant.
func TestServeVariants(t *testing.T) {
	pl, err := makePool(3, "serve", "C1", 2)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]string{}
	for b := range pl.ckts {
		for v := 0; v < 3; v++ {
			text, err := variantText(pl.ckts[b], 3, b, v)
			if err != nil {
				t.Fatal(err)
			}
			again, _ := variantText(pl.ckts[b], 3, b, v)
			if text != again {
				t.Fatalf("variant %d of base %d is not reproducible", v, b)
			}
			if v == 0 && text != pl.texts[b] {
				t.Fatalf("variant 0 of base %d is not the base circuit", b)
			}
			name := fmt.Sprintf("%d/%d", b, v)
			if prev, dup := seen[text]; dup {
				t.Fatalf("variants %s and %s are the same circuit", prev, name)
			}
			seen[text] = name
		}
	}
}

// TestTracedRunCoversLayers checks that a traced operation reports every
// per-layer metric except the service layer's, which only the serve
// workload's load measures.
func TestTracedRunCoversLayers(t *testing.T) {
	pl, err := makePool(5, "route", "C1", 1)
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer("test")
	recs := make([]*record, 1)
	if err := tr.pair(pl.texts[0], engine.Config{UseConstraints: true}, recs, 0, true); err != nil {
		t.Fatal(err)
	}
	got := tr.values()
	for _, d := range perLayer {
		if _, ok := got[d.name]; !ok && !strings.HasPrefix(d.name, "service.") {
			t.Errorf("traced run lacks %s", d.name)
		}
	}
	known := map[string]bool{}
	for _, d := range perLayer {
		known[d.name] = true
	}
	for name := range got {
		if !known[name] {
			t.Errorf("traced run reports %s, which BENCHMARK.json does not list", name)
		}
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json names exactly the
// workloads and metrics this program reports.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for name := range workloads {
		want = append(want, name)
	}
	sort.Strings(names)
	sort.Strings(want)
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Errorf("workloads: BENCHMARK.json has %v, the program runs %v", names, want)
	}
	check := func(kind string, got []struct{ Name, Unit, Better string }, defs []metricDef) {
		if len(got) != len(defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program reports %d", kind, len(got), len(defs))
			return
		}
		for i, d := range defs {
			if g := got[i]; g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the program reports %+v", kind, i, g, d)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}
