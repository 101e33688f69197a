package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sync"

	"repro/internal/circuit"
	"repro/internal/gen"
)

// genCircuits generates n circuits at the scale of a paper data set
// ("C1", "C3"), alternating placements P1 and P2. Circuit i takes the
// i-th value of a generator stream seeded with seed, so the same
// (seed, stream) always yields the same circuits; stream separates the
// route workloads' circuits from the serve workload's. Generation is
// split over two goroutines; the result does not depend on the split.
func genCircuits(seed int64, stream, scale string, n int) ([]*circuit.Circuit, error) {
	rng := rand.New(rand.NewSource(streamSeed(seed, stream)))
	params := make([]gen.Params, n)
	for i := range params {
		placement := "P1"
		if i%2 == 1 {
			placement = "P2"
		}
		p, err := gen.Dataset(scale + placement)
		if err != nil {
			return nil, err
		}
		p.Seed = rng.Int63()
		p.Name = fmt.Sprintf("%s-s%d-%s%s-%03d", stream, seed, scale, placement, i)
		params[i] = p
	}
	ckts := make([]*circuit.Circuit, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	const workers = 2
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < n; i += workers {
				ckts[i], errs[i] = gen.Generate(params[i])
			}
		}(w)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("generate %s: %w", params[i].Name, err)
		}
	}
	return ckts, nil
}

// streamSeed derives an independent generator seed for one named use of
// the benchmark seed.
func streamSeed(seed int64, stream string) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s/%d", stream, seed)
	return int64(h.Sum64())
}

// formatCircuit renders a circuit in the .ckt text format, the input
// every operation starts from.
func formatCircuit(ckt *circuit.Circuit) (string, error) {
	var buf bytes.Buffer
	if err := circuit.Format(&buf, ckt); err != nil {
		return "", fmt.Errorf("format %s: %w", ckt.Name, err)
	}
	return buf.String(), nil
}

// pool is a workload's generated circuits and their texts.
type pool struct {
	ckts  []*circuit.Circuit
	texts []string
}

// makePool generates and formats n circuits (see genCircuits).
func makePool(seed int64, stream, scale string, n int) (*pool, error) {
	ckts, err := genCircuits(seed, stream, scale, n)
	if err != nil {
		return nil, err
	}
	p := &pool{ckts: ckts, texts: make([]string, n)}
	for i, c := range ckts {
		if p.texts[i], err = formatCircuit(c); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// samePool reports whether two pools hold identical circuit texts.
func samePool(a, b *pool) bool {
	if len(a.texts) != len(b.texts) {
		return false
	}
	for i := range a.texts {
		if a.texts[i] != b.texts[i] {
			return false
		}
	}
	return true
}

// variantText renders variant v of a base circuit: v = 0 is the base
// itself; v > 0 scales every constraint limit by its own seeded factor
// in [0.85, 1.15]. A variant is a distinct circuit (its own text, its
// own routing) whose generation costs only a format, so the serve
// workload can submit fresh circuits for as long as it runs.
func variantText(base *circuit.Circuit, seed int64, b, v int) (string, error) {
	if v == 0 {
		return formatCircuit(base)
	}
	rng := rand.New(rand.NewSource(streamSeed(seed, fmt.Sprintf("variant/%d/%d", b, v))))
	c := *base
	c.Name = fmt.Sprintf("%s-v%d", base.Name, v)
	c.Cons = append([]circuit.Constraint(nil), base.Cons...)
	for i := range c.Cons {
		c.Cons[i].Limit *= 0.85 + 0.3*rng.Float64()
	}
	return formatCircuit(&c)
}

// props summarizes a workload's circuits for the result record.
type props struct {
	Circuits        int     `json:"circuits"`
	MeanNets        float64 `json:"mean_nets"`
	MeanConstraints float64 `json:"mean_constraints"`
	MeanChannels    float64 `json:"mean_channels"`
}

func propsOf(ckts []*circuit.Circuit) props {
	p := props{Circuits: len(ckts)}
	for _, c := range ckts {
		p.MeanNets += float64(len(c.Nets))
		p.MeanConstraints += float64(len(c.Cons))
		p.MeanChannels += float64(c.Channels())
	}
	if n := float64(len(ckts)); n > 0 {
		p.MeanNets /= n
		p.MeanConstraints /= n
		p.MeanChannels /= n
	}
	return p
}
