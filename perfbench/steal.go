package main

import (
	"bytes"
	"os"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"
)

// stealClock measures time net of hypervisor steal. On a shared virtual
// machine the host periodically runs other guests on this guest's CPUs;
// the guest kernel counts that time as steal in /proc/stat. Steal comes
// in episodes of seconds and moves wall-clock times by tens of percent
// from run to run, independently of the code under test. The clock
// samples the cumulative steal time and subtracts from an interval the
// steal that fell in it, averaged over the CPUs. Where /proc/stat is
// unavailable or shows no steal, net time equals wall time.
type stealClock struct {
	ncpu float64
	stop chan struct{}
	done chan struct{}

	mu    sync.Mutex
	at    []time.Time
	steal []float64 // cumulative steal, CPU-seconds summed over all CPUs
}

// stealPeriod is the sampling interval: fine enough to follow steal
// episodes, coarse enough that sampling costs nothing measurable.
const stealPeriod = 50 * time.Millisecond

func startStealClock() *stealClock {
	c := &stealClock{ncpu: float64(runtime.NumCPU()), stop: make(chan struct{}), done: make(chan struct{})}
	c.sample()
	go func() {
		defer close(c.done)
		t := time.NewTicker(stealPeriod)
		defer t.Stop()
		for {
			select {
			case <-c.stop:
				return
			case <-t.C:
				c.sample()
			}
		}
	}()
	return c
}

// close stops sampling and waits for the sampler to exit.
func (c *stealClock) close() {
	close(c.stop)
	<-c.done
}

// sample records the current cumulative steal time.
func (c *stealClock) sample() {
	s := readSteal()
	now := time.Now()
	c.mu.Lock()
	c.at = append(c.at, now)
	c.steal = append(c.steal, s)
	c.mu.Unlock()
}

// netAll returns the duration of each interval in ms, less the steal
// that fell in it divided by the CPU count. Call it once the intervals
// have ended; it samples first so they are covered.
func (c *stealClock) netAll(spans []span) []float64 {
	c.sample()
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]float64, len(spans))
	for i, s := range spans {
		out[i] = ms(s.end.Sub(s.start)) - (c.stealAt(s.end)-c.stealAt(s.start))/c.ncpu*1000
	}
	return out
}

// stolenShare is the fraction of CPU time stolen over [start, end].
func (c *stealClock) stolenShare(start, end time.Time) float64 {
	c.sample()
	c.mu.Lock()
	defer c.mu.Unlock()
	return (c.stealAt(end) - c.stealAt(start)) / c.ncpu / end.Sub(start).Seconds()
}

// stealAt interpolates the cumulative steal at t; c.mu must be held.
func (c *stealClock) stealAt(t time.Time) float64 {
	i := sort.Search(len(c.at), func(i int) bool { return !c.at[i].Before(t) })
	switch {
	case i == 0:
		return c.steal[0]
	case i == len(c.at):
		return c.steal[len(c.steal)-1]
	}
	t0, t1 := c.at[i-1], c.at[i]
	f := float64(t.Sub(t0)) / float64(t1.Sub(t0))
	return c.steal[i-1] + f*(c.steal[i]-c.steal[i-1])
}

// span is one timed interval.
type span struct{ start, end time.Time }

// readSteal returns the machine's cumulative steal time in CPU-seconds
// from the aggregate cpu line of /proc/stat (eighth field, in 1/100 s
// clock ticks), or 0 where it cannot be read.
func readSteal() float64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := bytes.Cut(b, []byte("\n"))
	f := bytes.Fields(line)
	if len(f) < 9 || string(f[0]) != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseFloat(string(f[8]), 64)
	if err != nil {
		return 0
	}
	return ticks / 100
}
