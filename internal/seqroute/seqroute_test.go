package seqroute

import (
	"context"
	"testing"

	"repro/internal/chanroute"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/verify"
)

func TestRouteSampleSmall(t *testing.T) {
	res, err := Route(context.Background(), circuit.SampleSmall(), engine.Config{UseConstraints: true})
	if err != nil {
		t.Fatal(err)
	}
	for n, g := range res.Graphs {
		if g == nil {
			t.Fatalf("net %d unrouted", n)
		}
		if !g.IsTree() {
			t.Errorf("net %s not a tree", res.Ckt.Nets[n].Name)
		}
		// All terminals connected.
		if _, err := g.Tentative(); err != nil {
			t.Errorf("net %s: %v", res.Ckt.Nets[n].Name, err)
		}
		if res.WirelenUm[n] <= 0 {
			t.Errorf("net %s: length %v", res.Ckt.Nets[n].Name, res.WirelenUm[n])
		}
	}
	if res.Delay <= 0 {
		t.Fatal("no delay reported")
	}
	// The trees feed the channel router like the concurrent ones do.
	if _, err := chanroute.Route(res.Ckt, res.Graphs); err != nil {
		t.Fatal(err)
	}
}

func TestBaselineVersusConcurrent(t *testing.T) {
	p, err := gen.Dataset("C1P1")
	if err != nil {
		t.Fatal(err)
	}
	ckt, err := gen.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := Route(context.Background(), ckt, engine.Config{UseConstraints: true})
	if err != nil {
		t.Fatal(err)
	}
	con, err := core.Route(ckt, core.Config{UseConstraints: true})
	if err != nil {
		t.Fatal(err)
	}
	// The concurrent router must not lose to the net-at-a-time baseline
	// on the metrics the paper optimizes (generous tolerance: the point
	// is the ordering, not an exact factor).
	if con.Delay > seq.Delay*1.05 {
		t.Errorf("concurrent delay %v worse than sequential %v", con.Delay, seq.Delay)
	}
	if con.Dens.TotalTracks() > seq.Dens.TotalTracks()*11/10 {
		t.Errorf("concurrent tracks %d much worse than sequential %d",
			con.Dens.TotalTracks(), seq.Dens.TotalTracks())
	}
	t.Logf("delay: concurrent %.1f vs sequential %.1f ps", con.Delay, seq.Delay)
	t.Logf("tracks: concurrent %d vs sequential %d", con.Dens.TotalTracks(), seq.Dens.TotalTracks())
}

func TestCongestionAvoidance(t *testing.T) {
	// With a high alpha the baseline must respect congestion: route the
	// same circuit with alpha 0 (pure shortest) and a large alpha, and
	// check max channel density does not increase.
	p, _ := gen.Dataset("C1P1")
	ckt, err := gen.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	pure, err := Route(context.Background(), ckt, engine.Config{UseConstraints: true, Alpha: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	avoid, err := Route(context.Background(), ckt, engine.Config{UseConstraints: true, Alpha: 2.0})
	if err != nil {
		t.Fatal(err)
	}
	maxCM := func(r *engine.Result) int {
		_, cm := r.Dens.MaxCM()
		return cm
	}
	if maxCM(avoid) > maxCM(pure) {
		t.Errorf("congestion weighting increased max density: %d vs %d", maxCM(avoid), maxCM(pure))
	}
	// Wire length stays in the same ballpark (union-of-paths effects can
	// move it a little in either direction).
	if ratio := avoid.TotalWirelenUm / pure.TotalWirelenUm; ratio < 0.9 || ratio > 1.2 {
		t.Errorf("avoidance changed total wire implausibly: %v vs %v", avoid.TotalWirelenUm, pure.TotalWirelenUm)
	}
}

func TestEstimateTargetPositive(t *testing.T) {
	if got := estimateTarget(circuit.SampleSmall()); got < 1 {
		t.Fatalf("target %d", got)
	}
}

func TestBaselinePassesStructuralAudit(t *testing.T) {
	p, _ := gen.Dataset("C1P1")
	ckt, err := gen.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Route(context.Background(), ckt, engine.Config{UseConstraints: true})
	if err != nil {
		t.Fatal(err)
	}
	// The baseline promises trees, feed coverage and consistent lengths,
	// but not §4.1 pair parallelism (a documented weakness).
	v := verify.Check(verify.Parts{
		Ckt: res.Ckt, Geo: res.Geo, Feeds: res.Feeds, Graphs: res.Graphs,
		WirelenUm: res.WirelenUm, Dens: res.Dens, CheckPairs: false,
	})
	if !v.OK() {
		t.Fatalf("baseline failed audit: %v", v.Problems[0])
	}
}
