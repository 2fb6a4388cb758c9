package p2p

// Integration tests for the observability layer on the runtime: the
// zero-alloc contract with the full layer attached (registry + flight
// recorder + health sampler), and the flight-recorder hooks on the chord
// lookup driver.

import (
	"testing"
	"time"

	"nearestpeer/internal/obs"
)

// TestObsZeroAlloc is ISSUE 6's enforcement: with the metrics registry, the
// flight recorder AND the health sampler all enabled, the steady-state
// message path (send → deliver, request → expiry, multicast round, plus a
// recorder write and a histogram observe per op) must still allocate
// nothing. A failing test, not a bench note — the claim cannot regress
// silently.
func TestObsZeroAlloc(t *testing.T) {
	kernel, rt := newTestRuntime(t, 128, 0)
	reg := obs.NewRegistry(128)
	rt.EnableObs(reg)
	rec := obs.NewRecorder(64)
	rt.AttachRecorder(rec)

	a := rt.AddNode(0)
	b := rt.AddNode(1)
	b.Serve(NewTable().With("noop", func(*Node, Envelope) {}))
	mc := NewTable().With("mc", func(*Node, Envelope) {})
	for i := 2; i < 128; i++ {
		rt.AddNode(NodeID(i)).Serve(mc)
		rt.JoinGroup("g", NodeID(i))
	}
	// Sampler every 5ms with a far horizon; the test drives the kernel
	// with RunUntil, so the self-rescheduling tick cannot spin a drain
	// loop forever.
	rt.StartHealthSampler(5*time.Millisecond, time.Hour, 32)

	// Warm everything: slab, kernel queue, registry type table, multicast
	// sender index, recorder ring (past one full wrap), sampler ring.
	for i := 0; i < 64; i++ {
		a.Send(1, "noop", nil)
		rec.Record(obs.Hop{Lookup: uint64(i), Scheme: "chord", Type: MsgChordFind, From: 0, To: 1, RTTms: 10})
	}
	rt.Multicast(0, "g", "mc", nil, 300)
	a.Ping(1, 100*time.Millisecond, false, func(float64, bool) {})
	kernel.RunUntil(kernel.Now() + time.Second)

	if avg := testing.AllocsPerRun(500, func() {
		a.Send(1, "noop", nil)
		rt.Multicast(0, "g", "mc", nil, 300)
		rec.Record(obs.Hop{Lookup: 1, Scheme: "chord", Type: MsgChordFind, From: 0, To: 1, RTTms: 10})
		reg.ObserveLookupMs(42)
		kernel.RunUntil(kernel.Now() + 20*time.Millisecond)
	}); avg != 0 {
		t.Fatalf("obs-enabled steady state allocates %v per op, want 0", avg)
	}
}

// TestChordLookupFlightRecorder drives a small chord ring with a recorder
// attached and checks the trace: every lookup leaves per-hop records with
// measured RTTs, grouped by lookup ID.
func TestChordLookupFlightRecorder(t *testing.T) {
	kernel, rt := newTestRuntime(t, 32, 0)
	rec := obs.NewRecorder(4096)
	rt.AttachRecorder(rec)
	chord := NewChord(rt, DefaultChordConfig(), 5)
	for i := 0; i < 24; i++ {
		chord.Join(NodeID(i))
		kernel.RunUntil(kernel.Now() + 50*time.Millisecond)
	}
	kernel.RunUntil(kernel.Now() + 30*time.Second)

	lookups := 0
	for q := 0; q < 8; q++ {
		chord.Lookup(NodeID(q), "key", func(res LookupResult) {
			lookups++
			if !res.OK {
				t.Errorf("lookup %d failed", q)
			}
		})
		kernel.RunUntil(kernel.Now() + 5*time.Second)
	}
	if lookups != 8 {
		t.Fatalf("%d of 8 lookups completed", lookups)
	}
	hops := rec.Snapshot()
	if len(hops) == 0 {
		t.Fatal("no hops recorded")
	}
	// Background finger-repair lookups interleave with the queries, so
	// trace order is not grouped by lookup — but IDs must be present and
	// distinct per lookup (at least the 8 query lookups).
	ids := map[uint64]bool{}
	for _, h := range hops {
		if h.Scheme != "chord" || h.Type != MsgChordFind {
			t.Fatalf("unexpected hop %+v", h)
		}
		if h.Outcome == obs.HopOK && h.RTTms <= 0 {
			t.Fatalf("ok hop with no RTT: %+v", h)
		}
		if h.Lookup == 0 {
			t.Fatalf("hop without lookup ID: %+v", h)
		}
		ids[h.Lookup] = true
	}
	if len(ids) < 8 {
		t.Fatalf("trace holds %d distinct lookups, want >= 8", len(ids))
	}
	// Lossless, stable ring: every hop answers.
	for _, h := range hops {
		if h.Outcome != obs.HopOK {
			t.Fatalf("unexpected non-OK hop on a lossless stable ring: %+v", h)
		}
	}
}
