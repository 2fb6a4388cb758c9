package latency

import (
	"math"
	"runtime"
	"testing"

	"nearestpeer/internal/rng"
)

// referenceDense is the Section 4 matrix filled the way the n² table always
// was: every i < j pair summed in index order and stored through Set, which
// mirrors it. It reads the model's hub table and the ground truth only, so
// it is independent of LatencyMs, gatherRow and Dense.
func referenceDense(m *Clustered, gt *GroundTruth, intraEN float64) *Dense {
	n := len(gt.ENOf)
	d := NewDense(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			var lat float64
			switch {
			case gt.ENOf[i] == gt.ENOf[j]:
				lat = intraEN
			case gt.ClusterOf[i] == gt.ClusterOf[j]:
				lat = gt.HubLatMs[i] + gt.HubLatMs[j]
			default:
				lat = gt.HubLatMs[i] + m.hubs.LatencyMs(gt.ClusterOf[i], gt.ClusterOf[j]) + gt.HubLatMs[j]
			}
			d.Set(i, j, lat)
		}
	}
	return d
}

// FuzzClusteredMatchesDense: the computed model prices every pair with the
// bits the dense fill stored — through LatencyMs, through GatherRow over a
// shuffled index list (the row itself included) and through the Dense
// materialiser BuildClustered returns.
func FuzzClusteredMatchesDense(f *testing.F) {
	f.Add(int64(1), uint8(4), uint8(1), uint16(150), uint8(20), uint8(20))
	f.Fuzz(func(t *testing.T, seed int64, ens, peersPerEN uint8, total uint16, delta, spread uint8) {
		cfg := DefaultClusteredConfig()
		cfg.ENsPerCluster = 1 + int(ens)%40
		cfg.PeersPerEN = 1 + int(peersPerEN)%4
		cfg.TotalPeers = cfg.PeersPerEN + int(total)%200
		cfg.Delta = float64(delta%101) / 100
		cfg.ENSpread = float64(spread%51) / 100
		m, gt := NewClustered(cfg, seed)
		n := m.N()
		if n != len(gt.ENOf) {
			t.Fatalf("N() = %d, ground truth has %d peers", n, len(gt.ENOf))
		}
		want := referenceDense(m, gt, cfg.IntraENMs)
		dense, _ := BuildClustered(cfg, seed)
		js := rng.New(seed).Perm(n)
		row := make([]float64, n)
		for i := 0; i < n; i++ {
			GatherRow(m, i, js, row)
			for k, j := range js {
				w := math.Float64bits(want.LatencyMs(i, j))
				if g := math.Float64bits(m.LatencyMs(i, j)); g != w {
					t.Fatalf("%+v seed %d: LatencyMs(%d, %d) = %v, dense fill %v", cfg, seed, i, j, m.LatencyMs(i, j), want.LatencyMs(i, j))
				}
				if g := math.Float64bits(row[k]); g != w {
					t.Fatalf("%+v seed %d: GatherRow(%d)[%d] = %v, dense fill (%d, %d) = %v", cfg, seed, i, k, row[k], i, j, want.LatencyMs(i, j))
				}
				if g := math.Float64bits(dense.LatencyMs(i, j)); g != w {
					t.Fatalf("%+v seed %d: BuildClustered (%d, %d) = %v, dense fill %v", cfg, seed, i, j, dense.LatencyMs(i, j), want.LatencyMs(i, j))
				}
			}
		}
	})
}

// TestClusteredFootprint: the computed model at Full scale (2,500 peers,
// 125 end-networks per cluster) allocates per-peer state and a hub table,
// never an n×n table (which is 50 MB here).
func TestClusteredFootprint(t *testing.T) {
	cfg := DefaultClusteredConfig()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	m, _ := NewClustered(cfg, 1)
	runtime.ReadMemStats(&after)
	const limit = 256 << 10
	got := after.TotalAlloc - before.TotalAlloc
	if got >= limit {
		t.Fatalf("NewClustered(%d peers) allocated %d bytes, want under %d", m.N(), got, limit)
	}
	t.Logf("NewClustered(%d peers) allocated %d bytes", m.N(), got)
}

// BenchmarkGatherRow is the maintenance row read Meridian's ring selection
// makes: one node against a 64-id candidate pool, on fig8 Quick's 125-EN
// matrix held as a table and as the computed model.
func BenchmarkGatherRow(b *testing.B) {
	cfg := DefaultClusteredConfig()
	cfg.TotalPeers = 1200
	c, _ := NewClustered(cfg, 1)
	n := c.N()
	src := rng.New(2)
	pool := src.Perm(n)[:64]
	out := make([]float64, len(pool))
	for _, bc := range []struct {
		name string
		m    Matrix
	}{{"Dense", c.Dense()}, {"Clustered", c}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				GatherRow(bc.m, i%n, pool, out)
			}
		})
	}
}
