// Race and aliasing stress for the pooled-workspace routing engine. The
// zero-allocation hot path leans on reused per-router scratch buffers,
// so the two failure modes worth a dedicated regression are (1)
// concurrent routes racing on state one of them should own alone and
// (2) a later route mutating an earlier route's still-live result
// through a leaked backing array. Run with -race to arm the first check.
package repro_test

import (
	"bytes"
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
// goroutines at once, as the service's job pool runs routers side by
// side, and requires every run to produce byte-identical routedb JSON.
// Under -race it doubles as the data-race detector for routers running
// concurrently. The routes run concurrently; fingerprinting happens after
// the join so no goroutine touches testing.T. (The name predates the
// removal of the per-run worker count.)
func TestConcurrentWorkerCountsIdentical(t *testing.T) {
	ckt := stressCircuit(t)
	const routers = 4
	cfg := core.Config{UseConstraints: true}
	for round := 0; round < 2; round++ {
		var results [routers]*core.Result
		var errs [routers]error
		var wg sync.WaitGroup
		for i := range results {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				results[i], errs[i] = core.Route(ckt, cfg)
			}(i)
		}
		wg.Wait()
		var want []byte
		for i, res := range results {
			if errs[i] != nil {
				t.Fatalf("round %d: router %d: %v", round, i, errs[i])
			}
			got := fingerprint(t, res)
			if i == 0 {
				want = got
				continue
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("round %d: router %d routed differently from router 0 (%d vs %d bytes)",
					round, i, len(got), len(want))
			}
		}
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
	cfg := core.Config{UseConstraints: true}

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
