package p2p

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"nearestpeer/internal/latency"
	"nearestpeer/internal/overlay"
	"nearestpeer/internal/sim"
)

// buildOverlay stands up a clustered matrix with a full Meridian
// membership and returns everything a query test needs.
func buildOverlay(t *testing.T, peers int, loss float64, seed int64) (*sim.Sim, *Runtime, *Meridian, latency.Matrix, []int, []int) {
	t.Helper()
	cfg := latency.DefaultClusteredConfig()
	cfg.TotalPeers = peers
	cfg.ENsPerCluster = 25
	m, _ := latency.BuildClustered(cfg, seed)
	kernel := sim.New()
	rt := New(kernel, m, Config{LossProb: loss}, seed)
	mer := NewMeridian(rt, DefaultMeridianConfig(), seed+1)
	members, targets := overlay.Split(m.N(), 20, seed+2)
	for _, id := range members {
		mer.Join(NodeID(id))
	}
	for _, id := range targets {
		rt.AddNode(NodeID(id))
	}
	kernel.Run() // drain the join pings so rings are built
	return kernel, rt, mer, m, members, targets
}

// runQueries issues queries sequentially in virtual time.
func runQueries(kernel *sim.Sim, mer *Meridian, targets []int, n int) []FindResult {
	var out []FindResult
	i := 0
	var step func()
	step = func() {
		if i >= n {
			return
		}
		tgt := NodeID(targets[i%len(targets)])
		i++
		mer.FindNearest(tgt, tgt, func(res FindResult) {
			out = append(out, res)
			kernel.After(10*time.Millisecond, step)
		})
	}
	kernel.After(0, step)
	kernel.Run()
	return out
}

func TestMeridianRingsBuilt(t *testing.T) {
	_, rt, mer, _, members, _ := buildOverlay(t, 300, 0, 7)
	if mer.NumMembers() != len(members) {
		t.Fatalf("members %d, want %d", mer.NumMembers(), len(members))
	}
	if rt.Metrics.MaintProbes == 0 {
		t.Fatal("no maintenance probes issued during join")
	}
	filled := 0
	for _, id := range members {
		for _, ring := range mer.RingsOf(NodeID(id)) {
			filled += len(ring)
		}
	}
	if filled == 0 {
		t.Fatal("no ring entries installed")
	}
}

func TestMeridianQueryLossless(t *testing.T) {
	kernel, rt, mer, m, members, targets := buildOverlay(t, 300, 0, 7)
	results := runQueries(kernel, mer, targets, 25)
	if len(results) != 25 {
		t.Fatalf("%d results, want 25", len(results))
	}
	exact := 0
	for i, res := range results {
		if !res.Found {
			t.Fatalf("query %d did not complete with a peer in a lossless network", i)
		}
		if res.Peer < 0 {
			t.Fatalf("query %d found no peer", i)
		}
		if res.Probes <= 0 {
			t.Fatalf("query %d reports %d probes", i, res.Probes)
		}
		tgt := targets[i%len(targets)]
		if int(res.Peer) == overlay.TrueNearest(m, tgt, members).Peer {
			exact++
		}
		// The reported latency is the true RTT measured on the virtual
		// clock, which truncates to nanoseconds.
		if got, want := res.RTTms, m.LatencyMs(tgt, int(res.Peer)); math.Abs(got-want) > 1e-3 {
			t.Fatalf("query %d latency %v, want %v", i, got, want)
		}
	}
	if exact == 0 {
		t.Fatal("no query found the exact nearest peer")
	}
	if rt.Metrics.Timeouts != 0 {
		t.Fatalf("%d timeouts in a lossless static network", rt.Metrics.Timeouts)
	}
}

func TestMeridianQueryUnderLoss(t *testing.T) {
	kernel, rt, mer, _, _, targets := buildOverlay(t, 300, 0.05, 7)
	results := runQueries(kernel, mer, targets, 25)
	completed := 0
	for _, res := range results {
		if res.Found && res.Peer >= 0 {
			completed++
		}
	}
	if completed < 20 {
		t.Fatalf("only %d/25 queries completed under 5%% loss", completed)
	}
	if rt.Metrics.Timeouts == 0 {
		t.Fatal("5% loss produced no timeouts")
	}
}

func TestMeridianDeterministicReplay(t *testing.T) {
	run := func() (Metrics, []FindResult) {
		kernel, rt, mer, _, _, targets := buildOverlay(t, 200, 0.1, 11)
		return rt.Metrics, runQueries(kernel, mer, targets, 10)
	}
	m1, r1 := run()
	m2, r2 := run()
	if m1 != m2 || len(r1) != len(r2) {
		t.Fatalf("same seed diverged: %+v vs %+v", m1, m2)
	}
	for i := range r1 {
		if r1[i] != r2[i] {
			t.Fatalf("query %d diverged: %+v vs %+v", i, r1[i], r2[i])
		}
	}
}

func TestMeridianLeaveEvictsAndQueriesSurvive(t *testing.T) {
	kernel, _, mer, _, members, targets := buildOverlay(t, 300, 0, 7)
	// Kill a third of the membership: half crashes, half graceful.
	for i, id := range members {
		if i%3 != 0 {
			continue
		}
		mer.Leave(NodeID(id), i%6 == 0)
	}
	kernel.Run() // drain goodbyes
	alive := mer.NumMembers()
	if alive >= len(members) {
		t.Fatal("membership did not shrink")
	}
	results := runQueries(kernel, mer, targets, 15)
	completed := 0
	for _, res := range results {
		if res.Found && res.Peer >= 0 {
			completed++
			if !mer.isLiveMember(res.Peer) {
				t.Fatalf("query returned dead peer %d", res.Peer)
			}
		}
	}
	if completed < 12 {
		t.Fatalf("only %d/15 queries completed after mass departure", completed)
	}
}

func TestMeridianUnderChurn(t *testing.T) {
	kernel, rt, mer, _, members, targets := buildOverlay(t, 200, 0.02, 13)
	ccfg := ChurnConfig{
		MeanSession:  20 * time.Second,
		MeanOffline:  5 * time.Second,
		GracefulProb: 0.5,
		Horizon:      2 * time.Minute,
	}
	churn := NewChurn(rt, ccfg, 99)
	churn.OnLeave = func(id NodeID, graceful bool) { mer.Leave(id, graceful) }
	churn.OnJoin = func(id NodeID) { mer.Join(id) }
	ids := make([]NodeID, len(members))
	for i, id := range members {
		ids[i] = NodeID(id)
	}
	churn.Drive(ids)
	results := runQueries(kernel, mer, targets, 20)
	if churn.Leaves == 0 || churn.Joins == 0 {
		t.Fatalf("churn did not move: %d leaves, %d joins", churn.Leaves, churn.Joins)
	}
	completed := 0
	for _, res := range results {
		if res.Found && res.Peer >= 0 {
			completed++
		}
	}
	if completed < 10 {
		t.Fatalf("only %d/20 queries completed under churn", completed)
	}
}

// TestMeridianConfigValidate: every field the protocol cannot run with is
// rejected by Validate, and NewMeridian panics with the same reason — a β
// of 1 or more, a zero query deadline or a zero hop cap used to be
// accepted and break every query instead.
func TestMeridianConfigValidate(t *testing.T) {
	if err := DefaultMeridianConfig().Validate(); err != nil {
		t.Fatalf("default config rejected: %v", err)
	}
	rt := New(sim.New(), lineMatrix(4), DefaultConfig(), 1)
	NewMeridian(rt, DefaultMeridianConfig(), 1)
	bad := []struct {
		set  func(*MeridianConfig)
		want string
	}{
		{func(c *MeridianConfig) { c.RingBase = 0 }, "RingBase 0 must be positive"},
		{func(c *MeridianConfig) { c.RingBase = math.NaN() }, "RingBase NaN must be positive"},
		{func(c *MeridianConfig) { c.RingMult = 1 }, "RingMult 1 must exceed 1"},
		{func(c *MeridianConfig) { c.NumRings = 0 }, "NumRings 0 must be positive"},
		{func(c *MeridianConfig) { c.RingSize = -1 }, "RingSize -1 must be positive"},
		{func(c *MeridianConfig) { c.Beta = 0 }, "Beta 0 outside (0, 1)"},
		{func(c *MeridianConfig) { c.Beta = 1 }, "Beta 1 outside (0, 1)"},
		{func(c *MeridianConfig) { c.Beta = 1.5 }, "Beta 1.5 outside (0, 1)"},
		{func(c *MeridianConfig) { c.CandidatesPerNode = -1 }, "CandidatesPerNode -1 must not be negative"},
		{func(c *MeridianConfig) { c.QueryDeadline = 0 }, "QueryDeadline 0s must be positive"},
		{func(c *MeridianConfig) { c.QueryDeadline = -time.Second }, "QueryDeadline -1s must be positive"},
		{func(c *MeridianConfig) { c.MaxHops = 0 }, "MaxHops 0 must be positive"},
	}
	for _, tc := range bad {
		cfg := DefaultMeridianConfig()
		tc.set(&cfg)
		if err := cfg.Validate(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Validate(%+v) = %v, want an error containing %q", cfg, err, tc.want)
		}
		func() {
			defer func() {
				if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), tc.want) {
					t.Errorf("NewMeridian(%+v) panicked with %v, want a panic containing %q", cfg, r, tc.want)
				}
			}()
			NewMeridian(rt, cfg, 1)
		}()
	}
}
