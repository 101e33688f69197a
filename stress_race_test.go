// Race and aliasing stress for the pooled-workspace routing engine. The
// zero-allocation hot path leans on reused scratch buffers (per-router
// workspaces, the shared scoring worker pool), so the two failure modes
// worth a dedicated regression are (1) concurrent routes racing on a
// shared pool and (2) a later route mutating an earlier route's
// still-live result through a leaked backing array. Run with -race to
// arm the first check.
package repro_test

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/gen"
)

// stressCircuit generates the smallest data set once per test.
func stressCircuit(t *testing.T) *circuit.Circuit {
	t.Helper()
	p, err := gen.Dataset(gen.DatasetNames()[0])
	if err != nil {
		t.Fatal(err)
	}
	ckt, err := gen.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	return ckt
}

// TestConcurrentWorkerCountsIdentical routes the same circuit from four
// goroutines at once, one per worker-pool size, and requires every run to
// produce byte-identical routedb JSON. Concurrent routers share the
// global workpool, so under -race this doubles as the data-race detector
// for the shared scoring workers. The
// routes run concurrently; fingerprinting happens after the join so no
// goroutine touches testing.T.
func TestConcurrentWorkerCountsIdentical(t *testing.T) {
	ckt := stressCircuit(t)
	workerCounts := []int{1, 2, 4, 8}
	for round := 0; round < 2; round++ {
		results := make([]*core.Result, len(workerCounts))
		errs := make([]error, len(workerCounts))
		var wg sync.WaitGroup
		for i, w := range workerCounts {
			wg.Add(1)
			go func(i, w int) {
				defer wg.Done()
				results[i], errs[i] = core.Route(ckt, core.Config{UseConstraints: true, Workers: w})
			}(i, w)
		}
		wg.Wait()
		var want []byte
		for i, w := range workerCounts {
			if errs[i] != nil {
				t.Fatalf("round %d: workers=%d: %v", round, w, errs[i])
			}
			got := fingerprint(t, results[i])
			if i == 0 {
				want = got
				continue
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("round %d: workers=%d routed differently from workers=%d (%d vs %d bytes)",
					round, w, workerCounts[0], len(got), len(want))
			}
		}
	}
}

// TestShardWorkerMatrixIdentical is the worker matrix of the initial
// routing's single argmin schedule: on every data set, routing with
// workers ∈ {1, 2, 8} must produce routedb bytes identical to the fully
// sequential route (workers=1). Initial routing runs as one region — one
// selectEdge argmin per deletion — so the matrix has the single row
// shards=1; a scheduling leak in the parallel rescoring shows up here as
// a byte diff.
func TestShardWorkerMatrixIdentical(t *testing.T) {
	names := gen.DatasetNames()
	if testing.Short() {
		names = names[:1]
	}
	for _, ds := range names {
		t.Run(ds, func(t *testing.T) {
			p, err := gen.Dataset(ds)
			if err != nil {
				t.Fatal(err)
			}
			ckt, err := gen.Generate(p)
			if err != nil {
				t.Fatal(err)
			}
			seq, err := core.Route(ckt, core.Config{UseConstraints: true, Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			want := fingerprint(t, seq)
			t.Run("shards=1", func(t *testing.T) {
				for _, w := range []int{1, 2, 8} {
					t.Run(fmt.Sprintf("workers=%d", w), func(t *testing.T) {
						res, err := core.Route(ckt, core.Config{UseConstraints: true, Workers: w})
						if err != nil {
							t.Fatal(err)
						}
						if got := fingerprint(t, res); !bytes.Equal(got, want) {
							t.Fatalf("workers=%d routed differently from the sequential route (%d vs %d bytes)",
								w, len(got), len(want))
						}
					})
				}
			})
		})
	}
}

// TestConsecutiveRoutesShareNoBackingArrays is the aliasing regression for
// the recycled scratch: a second route of the same circuit must not hand
// out graph storage still referenced by the first route's result. It
// checks pointer identity of every per-net slice pair directly, and then
// re-fingerprints the first result after the second route to prove it was
// not mutated through any backing array the identity check missed.
func TestConsecutiveRoutesShareNoBackingArrays(t *testing.T) {
	ckt := stressCircuit(t)
	cfg := core.Config{UseConstraints: true, Workers: 2}

	resA, err := core.Route(ckt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	fpA := fingerprint(t, resA)

	resB, err := core.Route(ckt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for n := range resA.Graphs {
		ga, gb := resA.Graphs[n], resB.Graphs[n]
		if ga == gb {
			t.Fatalf("net %d: both results hold the same *Graph", n)
		}
		if len(ga.Verts) > 0 && len(gb.Verts) > 0 && &ga.Verts[0] == &gb.Verts[0] {
			t.Fatalf("net %d: Verts backing array shared between consecutive routes", n)
		}
		if len(ga.Edges) > 0 && len(gb.Edges) > 0 && &ga.Edges[0] == &gb.Edges[0] {
			t.Fatalf("net %d: Edges backing array shared between consecutive routes", n)
		}
	}

	if got := fingerprint(t, resA); !bytes.Equal(got, fpA) {
		t.Fatalf("first result changed after routing again: %d vs %d bytes", len(got), len(fpA))
	}
}
