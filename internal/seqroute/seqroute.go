// Package seqroute is a sequential, net-at-a-time global router — the
// class of timing-driven routers the paper positions itself against
// (Jackson/Kuh, Prasitjutrakul/Kubitz, Cong et al.; single-net routing
// under net-delay constraints). It serves as the comparison baseline: it
// shares every substrate with the concurrent router (feed assignment,
// routing graphs, density, timing) but routes one net after another, each
// by congestion-weighted shortest paths, with no concurrent edge-deletion
// and no global margin tracking.
//
// Nets are processed in ascending static slack. For each net, the router
// keeps the spanning tree the congestion-weighted Dijkstra union selects
// (edge cost = length · (1 + α·overflow)), commits its density, and moves
// on. Earlier nets never see later nets' congestion — the fundamental
// weakness the paper's concurrent scheme removes.
//
// Its one entry point, Route, speaks the shared engine API (engine.Config
// in, engine.Result out). Defaults (applied through withDefaults, in one
// place): an unset Alpha is 0.35, and an unset TargetTracks is derived
// from the average per-channel demand of the (possibly widened) circuit —
// total half-perimeter column demand spread over channels × columns,
// floored at one track.
package seqroute

import (
	"context"
	"fmt"
	"math"
	"time"

	"repro/internal/circuit"
	"repro/internal/density"
	"repro/internal/dgraph"
	"repro/internal/engine"
	"repro/internal/feed"
	"repro/internal/rgraph"
)

// withDefaults resolves the zero-value knobs — the single place defaults
// are applied. It runs after feedthrough assignment so the demand-derived
// TargetTracks sees the widened chip.
func withDefaults(cfg engine.Config, ckt *circuit.Circuit) engine.Config {
	if cfg.Alpha == 0 { //bgr:allow floateq -- zero-value Config sentinel: an unset Alpha is exactly 0
		cfg.Alpha = 0.35
	}
	if cfg.TargetTracks <= 0 {
		cfg.TargetTracks = estimateTarget(ckt)
	}
	return cfg
}

// Route runs the baseline, aborting between nets when ctx is cancelled.
// It reads UseConstraints (nets route in ascending static slack instead
// of index order), Alpha, TargetTracks and Progress (a snapshot at phase
// start, after every committed net, and a final Done snapshot); the
// other fields of cfg drive the concurrent engine only.
func Route(ctx context.Context, ckt *circuit.Circuit, cfg engine.Config) (*engine.Result, error) {
	start := time.Now() //bgr:allow clockuse -- profiling only
	if err := ckt.Validate(); err != nil {
		return nil, fmt.Errorf("seqroute: %w", err)
	}
	var order []int
	if cfg.UseConstraints {
		dg0, err := dgraph.New(ckt)
		if err != nil {
			return nil, err
		}
		order = dg0.SlackOrder()
	}
	fr, err := feed.Assign(ckt, order)
	if err != nil {
		return nil, err
	}
	cfg = withDefaults(cfg, fr.Ckt)
	res := &engine.Result{
		Ckt: fr.Ckt, Geo: fr.Geo, Feeds: fr.Feeds,
		Graphs:       make([]*rgraph.Graph, len(fr.Ckt.Nets)),
		WirelenUm:    make([]float64, len(fr.Ckt.Nets)),
		Dens:         density.New(fr.Ckt.Channels(), fr.Ckt.Cols),
		AddedPitches: fr.AddedPitches,
		Engine:       name,
	}

	full := order
	if full == nil {
		full = make([]int, len(fr.Ckt.Nets))
		for i := range full {
			full[i] = i
		}
	}
	if cfg.Progress != nil {
		cfg.Progress(engine.Progress{Phase: "route"})
	}
	routed := 0
	done := make([]bool, len(fr.Ckt.Nets))
	for _, n := range full {
		if done[n] {
			continue
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		nets := []int{n}
		if m := fr.Ckt.Nets[n].DiffMate; m != circuit.NoNet {
			nets = append(nets, m)
		}
		for _, nn := range nets {
			if err := routeNet(res, nn, cfg); err != nil {
				return nil, err
			}
			done[nn] = true
			routed++
			if cfg.Progress != nil {
				cfg.Progress(engine.Progress{Phase: "route", Accepted: routed})
			}
		}
	}
	// Final timing on the committed trees.
	dg, err := dgraph.New(res.Ckt)
	if err != nil {
		return nil, err
	}
	tm := dg.NewTiming()
	tm.SetLumped(res.WirelenUm)
	tm.Analyze()
	res.Timing = tm
	var violations int
	res.Delay, violations = tm.Summary()
	for _, l := range res.WirelenUm {
		res.TotalWirelenUm += l
	}
	if cfg.Progress != nil {
		cfg.Progress(engine.Progress{Phase: "route", Accepted: routed, Violations: violations, Done: true})
	}
	res.Duration = time.Since(start) //bgr:allow clockuse -- profiling only
	return res, nil
}

// routeNet routes one net by a congestion-weighted tentative tree and
// commits it: every edge outside the selected tree is discarded.
func routeNet(res *engine.Result, n int, cfg engine.Config) error {
	g, err := rgraph.Build(res.Ckt, res.Geo, n, res.Feeds[n])
	if err != nil {
		return err
	}
	tree, err := congestionTree(g, res.Dens, cfg.Alpha, cfg.TargetTracks)
	if err != nil {
		return err
	}
	// Keep only tree edges: the union is connected and spans the
	// terminals by construction. Recompute bridges so downstream
	// consumers (chanroute, verify) see a consistent tree.
	g.KeepOnly(tree)
	g.RecomputeBridges()
	res.Graphs[n] = g
	ft := g.FinalTree()
	res.WirelenUm[n] = ft.Length
	for _, e := range ft.Edges {
		ed := &g.Edges[e]
		if ed.Kind == rgraph.ETrunk {
			res.Dens.Add(ed.Ch, ed.X1, ed.X2, g.Pitch)
			res.Dens.AddBridge(ed.Ch, ed.X1, ed.X2, g.Pitch)
		}
	}
	return nil
}

// congestionTree runs Dijkstra from the driver with congestion-inflated
// edge costs and returns the union of the chosen paths.
func congestionTree(g *rgraph.Graph, dens *density.State, alpha float64, target int) (*rgraph.Tree, error) {
	cost := func(e int) float64 {
		ed := &g.Edges[e]
		c := ed.Len
		if ed.Kind == rgraph.ETrunk {
			over := dens.Edge(ed.Ch, ed.X1, ed.X2).DM + g.Pitch - target
			if over > 0 {
				c *= 1 + alpha*float64(over)
			}
			if c == 0 { //bgr:allow floateq -- guards against an exactly-zero-length trunk cost before Dijkstra
				c = 1e-9
			}
		}
		return c
	}
	return g.TentativeWeighted(cost)
}

// estimateTarget derives a per-channel density target from total demand:
// half-perimeter demand spread over the channels.
func estimateTarget(ckt *circuit.Circuit) int {
	var demandCols int
	for n := range ckt.Nets {
		minC, maxC := math.MaxInt32, -1
		for _, t := range ckt.Terminals(n) {
			for _, pos := range ckt.PositionsOf(t) {
				if pos.Col < minC {
					minC = pos.Col
				}
				if pos.Col > maxC {
					maxC = pos.Col
				}
			}
		}
		if maxC > minC {
			demandCols += (maxC - minC) * ckt.Nets[n].Pitch
		}
	}
	per := demandCols / (ckt.Channels() * ckt.Cols)
	if per < 1 {
		per = 1
	}
	return per
}

// name is the baseline's registry key.
const name = "sequential"

// sequentialEngine registers the baseline with the engine registry.
type sequentialEngine struct{}

func (sequentialEngine) Name() string { return name }

func (sequentialEngine) Route(ctx context.Context, ckt *circuit.Circuit, cfg engine.Config) (*engine.Result, error) {
	return Route(ctx, ckt, cfg)
}

func init() { engine.Register(sequentialEngine{}) }
