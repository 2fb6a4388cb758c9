package vivaldi

// Seed-matrix cross-check: the static embedding, driven once by RTT
// samples collected over the message runtime and once by the same samples
// read straight off the latency matrix, must converge to the same median
// relative error. The wire prices every ping through the netmodel hot path
// (TreeOneWayMs / the pair RTT cache) and the floor/ceil one-way split, so
// any silent pricing drift between those paths and Matrix.LatencyMs shows
// up here as diverging samples long before it would surface in a figure.

import (
	"math"
	"testing"
	"time"

	"nearestpeer/internal/latency"
	"nearestpeer/internal/netmodel"
	"nearestpeer/internal/p2p"
	"nearestpeer/internal/rng"
	"nearestpeer/internal/sim"
)

// crossCheckSchedule is a deterministic gossip schedule: rounds × members ×
// picks of (observer, observed) pairs, the shape Build runs.
func crossCheckSchedule(nHosts, rounds, picks int, seed int64) (a, b []int) {
	src := rng.New(seed)
	for r := 0; r < rounds; r++ {
		for m := 0; m < nHosts; m++ {
			for k := 0; k < picks; k++ {
				n := src.Intn(nHosts)
				if n == m {
					continue
				}
				a = append(a, m)
				b = append(b, n)
			}
		}
	}
	return a, b
}

// embedWithSamples replays the static update rule over the schedule with
// the given RTT samples and returns the median |pred-true|/true against the
// matrix.
func embedWithSamples(m latency.Matrix, obsA, obsB []int, rtts []float64, dims int, seed int64) float64 {
	src := rng.New(seed)
	coords := make([]*Coord, m.N())
	for i := range coords {
		coords[i] = NewCoord(dims)
	}
	for i := range obsA {
		coords[obsA[i]].Update(coords[obsB[i]], rtts[i], src)
	}
	var errs []float64
	esrc := rng.New(seed + 1)
	for k := 0; k < 400; k++ {
		a, b := esrc.Intn(m.N()), esrc.Intn(m.N())
		actual := m.LatencyMs(a, b)
		if a == b || actual <= 0 {
			continue
		}
		pred := coords[a].DistanceMs(coords[b])
		errs = append(errs, math.Abs(pred-actual)/actual)
	}
	for i := 1; i < len(errs); i++ {
		for j := i; j > 0 && errs[j] < errs[j-1]; j-- {
			errs[j], errs[j-1] = errs[j-1], errs[j]
		}
	}
	return errs[len(errs)/2]
}

// TestWireSamplesMatchMatrixEmbedding collects the schedule's RTTs twice —
// as runtime pings over a TopologyMatrix (the wire studies' cached pricing
// path) and as direct matrix reads — and checks (a) each wire sample
// matches its matrix value to the transport's nanosecond rounding, and (b)
// the two sample sets drive the static embedding to the same median
// relative error within a tight tolerance.
func TestWireSamplesMatchMatrixEmbedding(t *testing.T) {
	top := netmodel.Generate(netmodel.DefaultConfig(), 5)
	const nHosts = 40
	hosts := make([]netmodel.HostID, nHosts)
	for i := range hosts {
		hosts[i] = netmodel.HostID(i * 7) // spread across the topology
	}
	m := &latency.TopologyMatrix{Top: top, Hosts: hosts}

	obsA, obsB := crossCheckSchedule(nHosts, 40, 3, 11)

	// Matrix-fed samples: the ground truth the static simulator sees.
	matrixRTTs := make([]float64, len(obsA))
	for i := range obsA {
		matrixRTTs[i] = m.LatencyMs(obsA[i], obsB[i])
	}

	// Wire-collected samples: the same pairs pinged over the runtime.
	kernel := sim.New()
	rt := p2p.New(kernel, m, p2p.Config{RPCTimeout: time.Second}, 1)
	for i := 0; i < nHosts; i++ {
		rt.AddNode(p2p.NodeID(i))
	}
	wireRTTs := make([]float64, len(obsA))
	for i := range obsA {
		i := i
		rt.Node(p2p.NodeID(obsA[i])).Ping(p2p.NodeID(obsB[i]), 0, true, func(ms float64, ok bool) {
			if !ok {
				t.Errorf("lossless ping %d timed out", i)
			}
			wireRTTs[i] = ms
		})
	}
	kernel.Run()

	// (a) Per-sample agreement: the transport rounds each RTT to the
	// nearest nanosecond (durOf), so wire and matrix may differ by at most
	// half a nanosecond — anything larger is pricing drift.
	const nsMs = 1e-6
	for i := range wireRTTs {
		if d := math.Abs(wireRTTs[i] - matrixRTTs[i]); d > nsMs {
			t.Fatalf("sample %d (%d→%d): wire %.9f ms vs matrix %.9f ms (Δ %.3g ms > 1 ns)",
				i, obsA[i], obsB[i], wireRTTs[i], matrixRTTs[i], d)
		}
	}

	// (b) End-to-end: both sample sets converge the embedding to the same
	// quality. The tolerance absorbs the nanosecond rounding propagating
	// through the spring iteration; real drift (a mispriced path, a lost
	// leg) moves the median by orders of magnitude more.
	wireMed := embedWithSamples(m, obsA, obsB, wireRTTs, 5, 21)
	matMed := embedWithSamples(m, obsA, obsB, matrixRTTs, 5, 21)
	if d := math.Abs(wireMed - matMed); d > 0.01 {
		t.Fatalf("median rel err diverged: wire-fed %.4f vs matrix-fed %.4f (Δ %.4f > 0.01)", wireMed, matMed, d)
	}
	if wireMed > 0.8 {
		t.Fatalf("embedding did not converge: median rel err %.3f", wireMed)
	}
}
