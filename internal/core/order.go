package core

import (
	"sort"

	"repro/internal/circuit"
	"repro/internal/dgraph"
	"repro/internal/lowerbound"
)

// netOrder resolves the configured feedthrough-assignment net ordering.
// nil means index order (feed.Assign's default).
func netOrder(ckt *circuit.Circuit, cfg Config) ([]int, error) {
	strategy := cfg.Order
	if cfg.ArbitraryNetOrder {
		strategy = OrderIndex
	}
	switch strategy {
	case OrderSlack:
		if !cfg.UseConstraints || len(ckt.Cons) == 0 {
			return nil, nil
		}
		dg0, err := dgraph.New(ckt)
		if err != nil {
			return nil, err
		}
		return dg0.SlackOrder(), nil
	case OrderIndex:
		return nil, nil
	case OrderHPWL:
		hp := lowerbound.NetHPWL(ckt)
		return orderByDesc(len(ckt.Nets), func(n int) float64 { return hp[n] }), nil
	case OrderFanout:
		return orderByDesc(len(ckt.Nets), func(n int) float64 {
			return float64(len(ckt.Fanouts(n)))
		}), nil
	}
	return nil, nil
}

func orderByDesc(n int, key func(int) float64) []int {
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return key(order[a]) > key(order[b]) })
	return order
}
