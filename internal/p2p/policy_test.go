package p2p

import (
	"testing"
	"time"

	"nearestpeer/internal/faults"
	"nearestpeer/internal/latency"
	"nearestpeer/internal/sim"
)

// TestRequestPolicyZeroIsPlainRequest: on a transport with the zero policy
// RequestPolicy is one attempt with the caller's timeout — no retries
// charged, behavior identical to Request.
func TestRequestPolicyZeroIsPlainRequest(t *testing.T) {
	k := sim.New()
	r := New(k, faultTestMatrix(2), DefaultConfig(), 1)
	n0 := r.AddNode(0)
	r.AddNode(1)
	replies := 0
	k.At(0, func() {
		n0.RequestPolicy(1, MsgPing, nil, 300*time.Millisecond,
			func(Envelope) { replies++ }, func() { t.Error("timeout on a healthy link") })
	})
	k.Run()
	if replies != 1 {
		t.Fatalf("replies = %d, want 1", replies)
	}
	if m := r.TotalMetrics(); m.Retries != 0 {
		t.Errorf("zero policy charged %d retries", m.Retries)
	}
}

// TestRequestPolicyRetriesThroughBurst: a total black-hole that ends
// mid-call is survived by a policy whose backoff reaches past it, and the
// extra attempts are charged to Retries.
func TestRequestPolicyRetriesThroughBurst(t *testing.T) {
	plan := &faults.Plan{Seed: 2, Rules: []faults.Rule{
		{Kind: faults.Blackhole, At: 0, For: 1 * time.Second, Src: faults.List(0), Dst: faults.List(1)},
	}}
	k, r := newRetryRuntime(t, 2, Policy{Attempts: 4, BaseBackoff: 400 * time.Millisecond}, plan)
	n0 := r.AddNode(0)
	r.AddNode(1)
	var ok, timedOut bool
	k.At(0, func() {
		n0.RequestPolicy(1, MsgPing, nil, 200*time.Millisecond,
			func(Envelope) { ok = true }, func() { timedOut = true })
	})
	k.Run()
	if !ok || timedOut {
		t.Fatalf("ok=%v timedOut=%v, want the retry chain to outlive the black-hole", ok, timedOut)
	}
	m := r.TotalMetrics()
	if m.Retries == 0 {
		t.Error("no retries charged")
	}
	if m.Timeouts == 0 {
		t.Error("the black-holed attempts should have timed out")
	}
}

// TestRequestPolicyExhaustion: when every attempt dies, onTimeout fires
// exactly once and the peer's suspicion tally rises; an answered call
// clears it.
func TestRequestPolicyExhaustion(t *testing.T) {
	plan := &faults.Plan{Seed: 2, Rules: []faults.Rule{
		{Kind: faults.Blackhole, At: 0, For: 30 * time.Second, Src: faults.List(0), Dst: faults.List(1)},
	}}
	k, r := newRetryRuntime(t, 3, Policy{Attempts: 3, BaseBackoff: 100 * time.Millisecond}, plan)
	n0 := r.AddNode(0)
	r.AddNode(1)
	r.AddNode(2)
	timeouts := 0
	k.At(0, func() {
		n0.RequestPolicy(1, MsgPing, nil, 100*time.Millisecond,
			func(Envelope) { t.Error("reply through a black-hole") }, func() { timeouts++ })
	})
	k.Run()
	if timeouts != 1 {
		t.Fatalf("onTimeout fired %d times, want exactly 1", timeouts)
	}
	if got := n0.Suspicion(1); got != 1 {
		t.Errorf("Suspicion(1) = %d, want 1", got)
	}
	if n0.Suspect(1) {
		t.Error("one exhausted call should not cross the threshold of 2")
	}
	// A second exhausted call crosses it; an answered call to 2 clears 2.
	k.After(0, func() {
		n0.RequestPolicy(1, MsgPing, nil, 100*time.Millisecond, nil, nil)
		n0.RequestPolicy(2, MsgPing, nil, 100*time.Millisecond, nil, nil)
	})
	k.Run()
	if !n0.Suspect(1) {
		t.Errorf("Suspicion(1) = %d after two exhausted calls, want suspect", n0.Suspicion(1))
	}
	if n0.Suspicion(2) != 0 {
		t.Errorf("Suspicion(2) = %d after an answered call, want 0", n0.Suspicion(2))
	}
	// The same tally on a transport that does not retry names no suspect.
	_, plain := newRetryRuntime(t, 3, Policy{}, nil)
	p0 := plain.AddNode(0)
	p0.noteSuspicion(1)
	p0.noteSuspicion(1)
	if p0.Suspect(1) {
		t.Error("a disabled policy must never report suspects")
	}
}

// TestRequestPolicyChainDiesAcrossRestart: a retry timer parked when the
// node crashes (or restarts) must not fire an attempt in the next life.
func TestRequestPolicyChainDiesAcrossRestart(t *testing.T) {
	plan := &faults.Plan{Seed: 2, Rules: []faults.Rule{
		{Kind: faults.Blackhole, At: 0, For: 30 * time.Second, Src: faults.List(0), Dst: faults.List(1)},
	}}
	k, r := newRetryRuntime(t, 2, Policy{Attempts: 5, BaseBackoff: 500 * time.Millisecond}, plan)
	n0 := r.AddNode(0)
	r.AddNode(1)
	k.At(0, func() {
		n0.RequestPolicy(1, MsgPing, nil, 200*time.Millisecond, nil, nil)
	})
	// Restart lands inside the first backoff window (timeout 200 ms +
	// backoff 500 ms): the chain must not continue into the new life.
	k.At(400*time.Millisecond, func() { n0.Stop() })
	k.At(450*time.Millisecond, func() { n0.Restart() })
	k.Run()
	m := r.TotalMetrics()
	if m.Retries != 0 {
		t.Errorf("retry chain survived a restart: %d retries charged", m.Retries)
	}
}

// TestPolicyBackoffDeterminism: the backoff schedule is a pure function
// of (policy, node, sequence, attempt) — and jitter actually spreads it.
func TestPolicyBackoffDeterminism(t *testing.T) {
	pol := Policy{Attempts: 4, BaseBackoff: 100 * time.Millisecond, JitterFrac: 0.2}
	for attempt := 1; attempt <= 3; attempt++ {
		a := pol.backoff(7, 42, attempt)
		b := pol.backoff(7, 42, attempt)
		if a != b {
			t.Fatalf("backoff(attempt=%d) not deterministic: %v vs %v", attempt, a, b)
		}
		base := float64(100*time.Millisecond) * float64(int(1)<<(attempt-1))
		lo, hi := time.Duration(0.8*base), time.Duration(1.2*base)
		if a < lo || a > hi {
			t.Errorf("backoff(attempt=%d) = %v outside [%v, %v]", attempt, a, lo, hi)
		}
	}
	if pol.backoff(7, 42, 1) == pol.backoff(7, 43, 1) {
		t.Error("jitter identical across call sequences")
	}
}

// TestPolicyBackoffNeverNegative: regression for the unbounded-jitter bug.
// JitterFrac > 1 scales the backoff by 1 + JitterFrac*(2u-1), which goes
// negative whenever u < (JitterFrac-1)/(2*JitterFrac) — about a third of
// all draws at JitterFrac 3 — scheduling the retry in the past. The drawn
// delay must clamp at zero even for a policy that skipped Validate.
func TestPolicyBackoffNeverNegative(t *testing.T) {
	pol := Policy{Attempts: 4, BaseBackoff: 100 * time.Millisecond, JitterFrac: 3}
	hitZero := false
	for id := NodeID(0); id < 64; id++ {
		for seq := uint64(0); seq < 64; seq++ {
			for attempt := 1; attempt <= 3; attempt++ {
				d := pol.backoff(id, seq, attempt)
				if d < 0 {
					t.Fatalf("backoff(id=%d, seq=%d, attempt=%d) = %v, negative", id, seq, attempt, d)
				}
				if d == 0 {
					hitZero = true
				}
			}
		}
	}
	// The sweep must actually exercise draws the old code priced negative;
	// otherwise this test would pass vacuously.
	if !hitZero {
		t.Error("no draw clamped to zero: the sweep never hit the negative region")
	}
}

// TestPolicyValidate: the zero policy and every policy the studies use are
// valid; out-of-range knobs are rejected with a descriptive error.
func TestPolicyValidate(t *testing.T) {
	valid := []Policy{
		{},
		{Attempts: 3, BaseBackoff: 300 * time.Millisecond, JitterFrac: 0.2},
		{Attempts: 2, JitterFrac: 1},
	}
	for _, p := range valid {
		if err := p.Validate(); err != nil {
			t.Errorf("Validate(%+v) = %v, want nil", p, err)
		}
	}
	invalid := []Policy{
		{JitterFrac: 1.5},
		{JitterFrac: -0.1},
		{BaseBackoff: -time.Millisecond},
	}
	for _, p := range invalid {
		if err := p.Validate(); err == nil {
			t.Errorf("Validate(%+v) = nil, want error", p)
		}
	}
}

// TestPolicyValidateAtConstruction: every transport constructor rejects a
// Config whose retry policy is invalid — the policy is checked where it
// enters the transport, not first used deep in a retry chain.
func TestPolicyValidateAtConstruction(t *testing.T) {
	bad := Config{Retry: Policy{Attempts: 3, JitterFrac: 2}}
	m := faultTestMatrix(2)
	ctors := map[string]func(){
		"New": func() { New(sim.New(), m, bad, 1) },
		"NewSharded": func() {
			NewSharded(sim.NewSharded(1, time.Millisecond), []latency.Matrix{m}, bad, 1, []int32{0, 0})
		},
		"NewLoopback": func() { NewLoopback(m, bad, 1).Close() },
		"NewUDP":      func() { NewUDP(2, bad, 1).Close() },
	}
	for name, ctor := range ctors {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Errorf("%s accepted a retry policy with JitterFrac 2", name)
				}
			}()
			ctor()
		})
	}
}

// newRetryRuntime is a serial runtime over an n-node fault-test matrix
// whose transport retries under pol, with plan (when non-nil) installed.
func newRetryRuntime(t *testing.T, n int, pol Policy, plan *faults.Plan) (*sim.Sim, *Runtime) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Retry = pol
	k := sim.New()
	r := New(k, faultTestMatrix(n), cfg, 1)
	if plan != nil {
		if err := InstallFaults(r, plan); err != nil {
			t.Fatal(err)
		}
	}
	return k, r
}
