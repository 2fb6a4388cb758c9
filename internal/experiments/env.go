// Package experiments regenerates every table and figure of the paper's
// evaluation, plus the A1-A6 ablations. Each experiment is a
// pure function of (Scale, seed) returning a result with a Render method
// that prints the same rows/series the paper reports; cmd/figures writes
// them to results/, and bench_test.go wraps each one in a testing.B
// benchmark.
package experiments

import (
	"sync"

	"nearestpeer/internal/azureus"
	"nearestpeer/internal/measure"
	"nearestpeer/internal/netmodel"
)

// Scale selects experiment sizing. Quick keeps unit tests and benchmarks
// fast; Full reproduces the paper's population sizes (156,658 Azureus
// addresses, ~20k DNS servers, ~2.5k-peer Meridian overlays with 5,000
// queries × 3 runs).
type Scale int

// The two scales.
const (
	Quick Scale = iota
	Full
)

// String names the scale for figure headers and flags.
func (s Scale) String() string {
	if s == Full {
		return "full"
	}
	return "quick"
}

// Env is the shared measurement environment for the Section 3 and Section
// 5 experiments: one generated Internet, seven vantage points and a
// measurement host. The measurement toolkit is not shared: it is stateful
// (every probe advances its noise stream), so each study measures through a
// FreshTools of its own.
type Env struct {
	Scale    Scale
	Seed     int64
	Top      *netmodel.Topology
	Vantages []measure.Vantage
	// MH is the single measurement host used for rockettrace and King
	// (the paper ran those from one machine).
	MH netmodel.HostID
	// Population is the Azureus-style address list.
	Population azureus.Population
}

// quickTopoConfig is a mid-size topology for Quick scale: big enough to
// show every effect, small enough for tests.
func quickTopoConfig() netmodel.Config {
	c := netmodel.MeasurementConfig()
	c.NCities = 16
	c.NASes = 7
	c.ASCityCoverage = 0.4
	c.MinENsPerPoP, c.MaxENsPerPoP = 6, 24
	c.MeanHomesPerPoP = 250
	c.HomesCapMult = 18
	c.BRASCapacity = 5000
	return c
}

// populationSize returns the Azureus address-list size per scale.
func populationSize(s Scale) int {
	if s == Full {
		return azureus.PaperPopulationSize
	}
	return 12000
}

// NewEnv builds an environment. Environments are immutable once built;
// experiments must not mutate the topology.
func NewEnv(scale Scale, seed int64) *Env {
	cfg := quickTopoConfig()
	if scale == Full {
		cfg = netmodel.MeasurementConfig()
	}
	top := netmodel.Generate(cfg, seed)
	vs, err := measure.SelectVantages(top, 7)
	if err != nil {
		panic("experiments: " + err.Error())
	}
	return &Env{
		Scale:      scale,
		Seed:       seed,
		Top:        top,
		Vantages:   vs,
		MH:         vs[2].Host, // the Cornell node, as in the paper's DNS study
		Population: azureus.Sample(top, populationSize(scale), 0.85, seed+2),
	}
}

// FreshTools returns a new measurement toolkit over the topology, seeded
// from the environment's seed: every caller draws the same noise stream
// from its start, so a study's bytes do not depend on what measured before
// it in the process.
func (e *Env) FreshTools() *measure.Tools {
	return measure.NewTools(e.Top, measure.DefaultConfig(), e.Seed+1)
}

// VantageHosts returns the vantage host IDs.
func (e *Env) VantageHosts() []netmodel.HostID {
	out := make([]netmodel.HostID, len(e.Vantages))
	for i, v := range e.Vantages {
		out[i] = v.Host
	}
	return out
}

// ResponsivePeers returns the population members that yield a latency to a
// TCP ping or traceroute — the paper's 22,796-peer Section 5 set.
func (e *Env) ResponsivePeers() []netmodel.HostID {
	var out []netmodel.HostID
	for _, p := range e.Population.Hosts {
		h := e.Top.Host(p)
		if h.RespondsTCP || h.RespondsPing {
			out = append(out, p)
		}
	}
	return out
}

// memo is a per-process get-or-build cache. get builds under the lock, so
// figures running concurrently never build the same value twice.
type memo[K comparable, V any] struct {
	mu sync.Mutex
	m  map[K]V
}

// get returns the value cached under k, building it first if absent.
func (c *memo[K, V]) get(k K, build func() V) V {
	c.mu.Lock()
	defer c.mu.Unlock()
	if v, ok := c.m[k]; ok {
		return v
	}
	if c.m == nil {
		c.m = make(map[K]V)
	}
	v := build()
	c.m[k] = v
	return v
}

// Shared environments are expensive (the Full topology alone is ~half a
// million hosts), so experiments within one process share them per
// (scale, seed).
var envs memo[[2]int64, *Env]

// SharedEnv returns a cached environment for (scale, seed).
func SharedEnv(scale Scale, seed int64) *Env {
	return envs.get([2]int64{int64(scale), seed}, func() *Env { return NewEnv(scale, seed) })
}
