package seqroute_test

import (
	"context"
	"fmt"

	"repro/internal/circuit"
	"repro/internal/engine"
	"repro/internal/seqroute"
)

// ExampleRoute runs the sequential net-at-a-time baseline on the sample
// circuit.
func ExampleRoute() {
	res, err := seqroute.Route(context.Background(), circuit.SampleSmall(), engine.Config{UseConstraints: true})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	trees := 0
	for _, g := range res.Graphs {
		if g.IsTree() {
			trees++
		}
	}
	fmt.Printf("%d/%d nets routed as trees\n", trees, len(res.Graphs))
	// Output:
	// 7/7 nets routed as trees
}
