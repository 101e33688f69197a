package core

import (
	"fmt"

	"repro/internal/dgraph"
	"repro/internal/rgraph"
)

// ReOptimize resumes the §3.5 rip-up-and-reroute phases on a finished
// routing — the ECO path: edit constraint limits (or just ask for another
// improvement round) and re-optimize without re-running feedthrough
// assignment or the initial concurrent routing. prev is left untouched;
// the returned Result owns cloned graphs.
//
// cfg.SkipImprovement is ignored (re-optimization *is* the improvement);
// the feedthrough assignment and chip widening are inherited from prev.
func ReOptimize(prev *Result, cfg Config) (*Result, error) {
	if err := prev.Ckt.Validate(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	r := &router{cfg: cfg, ckt: prev.Ckt, geo: prev.Geo}
	nNets := len(r.ckt.Nets)
	if len(prev.Graphs) != nNets || len(prev.Feeds) != nNets {
		return nil, fmt.Errorf("core: previous result does not match the circuit")
	}
	var err error
	if r.dg, err = dgraph.New(r.ckt); err != nil {
		return nil, err
	}
	r.initNetState(nNets)
	r.feeds = make([][]rgraph.FeedPos, nNets)
	for n := 0; n < nNets; n++ {
		r.feeds[n] = append([]rgraph.FeedPos(nil), prev.Feeds[n]...)
		r.graphs[n] = prev.Graphs[n].Clone()
		r.pairOf[n] = r.ckt.Nets[n].DiffMate
		r.ownSlots(n, r.feeds[n], true)
	}
	for n, g := range r.graphs {
		r.densAddGraph(n, g)
	}
	r.buildIndexes()
	r.tm = r.dg.NewTiming()
	if err := r.refreshTrees(allNets(nNets)); err != nil {
		return nil, err
	}

	if cfg.UseConstraints {
		r.runPhase("eco-recover", func(ps *PhaseStat) error { return r.recoverViolations(ps) })
		r.runPhase("eco-delay", func(ps *PhaseStat) error { return r.improveDelay(ps) })
	}
	r.runPhase("eco-area", func(ps *PhaseStat) error { return r.improveArea(ps) })

	for n, g := range r.graphs {
		if !g.IsTree() {
			return nil, fmt.Errorf("core: net %s left in a non-tree state", r.ckt.Nets[n].Name)
		}
	}
	res := &Result{
		Ckt: r.ckt, Geo: r.geo, Feeds: r.feeds, Graphs: r.graphs,
		WirelenUm: r.wl, Timing: r.tm, Dens: r.dens,
		AddedPitches: prev.AddedPitches, Phases: r.phases,
	}
	for _, l := range r.wl {
		res.TotalWirelenUm += l
	}
	for p := range r.tm.Cons {
		if d := r.tm.Cons[p].Worst; d > res.Delay {
			res.Delay = d
		}
	}
	return res, nil
}
