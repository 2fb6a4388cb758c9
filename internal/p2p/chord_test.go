package p2p

import (
	"bytes"
	"runtime"
	"sort"
	"testing"
	"time"

	"nearestpeer/internal/dht"
	"nearestpeer/internal/sim"
)

// chordTestConfig keeps maintenance fast and lets the event queue drain.
func chordTestConfig(horizon time.Duration) ChordConfig {
	cfg := DefaultChordConfig()
	cfg.StabilizeEvery = 500 * time.Millisecond
	cfg.Horizon = horizon
	return cfg
}

// standUpRing joins n nodes staggered 10 ms apart and runs the kernel until
// the horizon drains maintenance.
func standUpRing(t *testing.T, n int, loss float64, horizon time.Duration) (*sim.Sim, *Runtime, *Chord) {
	t.Helper()
	kernel := sim.New()
	rt := New(kernel, lineMatrix(n), Config{RPCTimeout: time.Second}, 1)
	withLoss(t, rt, 1, loss)
	ch := NewChord(rt, chordTestConfig(horizon), 7)
	for i := 0; i < n; i++ {
		id := NodeID(i)
		kernel.After(time.Duration(i)*10*time.Millisecond, func() { ch.Join(id) })
	}
	kernel.Run()
	return kernel, rt, ch
}

// ringOrder returns the member ids sorted by ring position starting at the
// smallest ring id.
func ringOrder(ch *Chord, ids []NodeID) []NodeID {
	out := append([]NodeID(nil), ids...)
	sort.Slice(out, func(i, j int) bool { return ch.RingIDOf(out[i]) < ch.RingIDOf(out[j]) })
	return out
}

// expectedOwner computes successor(key) over the given membership — the
// ground truth the protocol should converge to.
func expectedOwner(ch *Chord, ids []NodeID, key uint64) NodeID {
	best := NoNode
	var bestDist uint64
	for _, id := range ids {
		d := ch.RingIDOf(id) - key // wrapping: clockwise distance from key to id
		if best == NoNode || d < bestDist {
			best, bestDist = id, d
		}
	}
	return best
}

func TestChordRingConverges(t *testing.T) {
	const n = 32
	_, _, ch := standUpRing(t, n, 0, 30*time.Second)
	ids := make([]NodeID, n)
	for i := range ids {
		ids[i] = NodeID(i)
	}
	ring := ringOrder(ch, ids)
	for i, id := range ring {
		wantSucc := ring[(i+1)%n]
		wantPred := ring[(i+n-1)%n]
		succ, ok := ch.SuccessorOf(id)
		if !ok || succ != wantSucc {
			t.Errorf("node %d successor = %d (ok=%v), want %d", id, succ, ok, wantSucc)
		}
		pred, ok := ch.PredecessorOf(id)
		if !ok || pred != wantPred {
			t.Errorf("node %d predecessor = %d (ok=%v), want %d", id, pred, ok, wantPred)
		}
	}
}

func TestChordLookupResolvesOwner(t *testing.T) {
	const n = 24
	kernel, _, ch := standUpRing(t, n, 0, 20*time.Second)
	ids := make([]NodeID, n)
	for i := range ids {
		ids[i] = NodeID(i)
	}
	keys := []string{"ucl/router/17", "prefix/24/0a0b0c00", "alpha", "beta", "gamma", "delta"}
	for _, key := range keys {
		for _, from := range []NodeID{0, 11, 23} {
			var got LookupResult
			ch.Lookup(from, key, func(r LookupResult) { got = r })
			kernel.Run()
			want := expectedOwner(ch, ids, dht.HashKey(key))
			if !got.OK || got.Owner != want {
				t.Errorf("lookup %q from %d = %+v, want owner %d", key, from, got, want)
			}
			if got.Hops > maxHops {
				t.Errorf("lookup %q took %d hops", key, got.Hops)
			}
		}
	}
}

func TestChordPutGetRoundTrip(t *testing.T) {
	const n = 16
	kernel, _, ch := standUpRing(t, n, 0, 20*time.Second)
	ids := make([]NodeID, n)
	for i := range ids {
		ids[i] = NodeID(i)
	}
	val := []byte("entry-1")
	var put OpResult
	ch.Put(3, "shared/key", val, func(r OpResult) { put = r })
	kernel.Run()
	if !put.OK {
		t.Fatalf("put failed: %+v", put)
	}
	owner := expectedOwner(ch, ids, dht.HashKey("shared/key"))
	if got := ch.StoredAt(owner, "shared/key"); got != 1 {
		t.Fatalf("owner %d stores %d values, want 1", owner, got)
	}
	// Replicas: Replicas-1 successors hold a copy.
	replicated := 0
	for _, id := range ids {
		if id != owner && ch.StoredAt(id, "shared/key") > 0 {
			replicated++
		}
	}
	if replicated != replicas-1 {
		t.Fatalf("%d replicas besides the owner, want %d", replicated, replicas-1)
	}
	var get OpResult
	ch.Get(12, "shared/key", func(r OpResult) { get = r })
	kernel.Run()
	if !get.OK || len(get.Vals) != 1 || !bytes.Equal(get.Vals[0], val) {
		t.Fatalf("get = %+v, want the stored value back", get)
	}
}

func TestChordLookupUnderLoss(t *testing.T) {
	const n = 24
	kernel, rt, ch := standUpRing(t, n, 0.05, 30*time.Second)
	okCount, fails := 0, 0
	const lookups = 60
	for i := 0; i < lookups; i++ {
		key := "lossy/" + string(rune('a'+i%26)) + string(rune('0'+i/26))
		ch.Lookup(NodeID(i%n), key, func(r LookupResult) {
			if r.OK {
				okCount++
			} else {
				fails++
			}
		})
		kernel.Run()
	}
	if okCount < lookups*9/10 {
		t.Fatalf("only %d/%d lookups resolved under 5%% loss", okCount, lookups)
	}
	if rt.Metrics.Timeouts == 0 {
		t.Fatal("no RPC timeouts under 5% loss — the loss rule is not in the path")
	}
}

func TestChordGetFallsBackToReplicaAfterOwnerCrash(t *testing.T) {
	const n = 16
	kernel, rt, ch := standUpRing(t, n, 0, 20*time.Second)
	ids := make([]NodeID, n)
	for i := range ids {
		ids[i] = NodeID(i)
	}
	val := []byte("survives")
	ch.Put(0, "fragile/key", val, func(OpResult) {})
	kernel.Run()
	owner := expectedOwner(ch, ids, dht.HashKey("fragile/key"))
	rt.Node(owner).Stop() // crash, no goodbye: the ring has not noticed
	var from NodeID = 1
	if from == owner {
		from = 2
	}
	var get OpResult
	ch.Get(from, "fragile/key", func(r OpResult) { get = r })
	kernel.Run()
	if !get.OK || len(get.Vals) == 0 || !bytes.Equal(get.Vals[0], val) {
		t.Fatalf("get after owner crash = %+v, want the replica's copy", get)
	}
	if get.Retries == 0 {
		t.Fatal("get resolved without retrying — the dead owner answered?")
	}
}

func TestChordSurvivesChurn(t *testing.T) {
	const n = 40
	kernel := sim.New()
	rt := New(kernel, lineMatrix(n), Config{RPCTimeout: time.Second}, 1)
	cfg := chordTestConfig(4 * time.Minute)
	ch := NewChord(rt, cfg, 7)
	ids := make([]NodeID, n)
	for i := range ids {
		ids[i] = NodeID(i)
		id := ids[i]
		kernel.After(time.Duration(i)*10*time.Millisecond, func() { ch.Join(id) })
	}
	ccfg := ChurnConfig{
		MeanSession:  60 * time.Second,
		MeanOffline:  15 * time.Second,
		GracefulProb: 0.5,
		Horizon:      3 * time.Minute,
	}
	churn := NewChurn(rt, ccfg, 11)
	churn.OnLeave = func(id NodeID, graceful bool) { ch.Leave(id, graceful) }
	churn.OnJoin = func(id NodeID) { ch.Join(id) }
	churn.Drive(ids[1:]) // node 0 stays up to query from
	okCount, issued := 0, 0
	var step func()
	step = func() {
		if issued >= 25 {
			return
		}
		issued++
		key := "churny/" + string(rune('a'+issued))
		ch.Lookup(0, key, func(r LookupResult) {
			if r.OK && ch.states[r.Owner] != nil {
				okCount++
			}
			kernel.After(2*time.Second, step)
		})
	}
	kernel.At(time.Minute, step) // start querying mid-churn
	kernel.Run()
	if churn.Leaves == 0 || churn.Joins == 0 {
		t.Fatalf("no churn happened: %+v", churn)
	}
	if issued != 25 {
		t.Fatalf("only %d lookups issued", issued)
	}
	if okCount < issued*3/4 {
		t.Fatalf("only %d/%d lookups resolved to live members under churn", okCount, issued)
	}
}

func TestChordDeterministicReplay(t *testing.T) {
	run := func() (Metrics, int) {
		kernel, rt, ch := standUpRing(t, 16, 0.1, 15*time.Second)
		_ = kernel
		return rt.Metrics, ch.NumMembers()
	}
	m1, n1 := run()
	m2, n2 := run()
	if m1 != m2 || n1 != n2 {
		t.Fatalf("same seed diverged: %+v/%d vs %+v/%d", m1, n1, m2, n2)
	}
}

// footprintMatrix is a computed all-pairs model for the footprint test:
// 2–27 ms RTTs, symmetric, no n×n table on the heap being measured.
type footprintMatrix int

func (m footprintMatrix) N() int { return int(m) }

func (m footprintMatrix) LatencyMs(i, j int) float64 {
	if i == j {
		return 0
	}
	return 2 + float64((i*j+i+j)%26)
}

// TestChordFootprintPerMember bounds what a ring member costs on the heap
// once the ring has formed: its Node, its chord state (a 256-byte finger
// table of int32 slots) and its share of the kernel's and runtime's
// buffers. Dispatch tables are per protocol role, not per node, so a
// per-node route slice or bound-method closure shows here as a few hundred
// bytes a member over the bound. Serving a table allocates nothing, for a
// first role or a second (the union is built once per pair of tables).
func TestChordFootprintPerMember(t *testing.T) {
	const members = 2000
	// Measured at 750 B on go1.24 linux/amd64; the bound leaves a quarter
	// of headroom. Per-node routes and method values and 64-bit finger
	// slots put the same ring at 1,540 B.
	const bound = 940
	kernel := sim.New()
	rt := New(kernel, footprintMatrix(members+1), Config{RPCTimeout: time.Second}, 1)
	cfg := DefaultChordConfig()
	cfg.StabilizeEvery = 2 * time.Second
	cfg.Horizon = 20 * time.Second
	ch := NewChord(rt, cfg, 1)
	for i := 0; i < members; i++ {
		id := NodeID(i)
		kernel.After(time.Duration(i)*5*time.Millisecond, func() { ch.Join(id) })
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	kernel.Run()
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(ch)
	if ch.NumMembers() != members {
		t.Fatalf("%d members joined, want %d", ch.NumMembers(), members)
	}
	per := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / members
	t.Logf("live heap per member: %d B", per)
	if per > bound {
		t.Errorf("live heap per member %d B, want at most %d B", per, bound)
	}

	spare := rt.AddNode(members) // a non-member: it serves the ping table
	second := NewTable().With("second", func(*Node, Envelope) {})
	allocs := testing.AllocsPerRun(100, func() {
		spare.table = pingTable
		spare.Serve(ch.table)
		spare.Serve(second)
	})
	if allocs != 0 {
		t.Errorf("serving a table allocated %v times a call, want 0", allocs)
	}
	if spare.table.handler(MsgChordFind) == nil || spare.table.handler("second") == nil {
		t.Error("the two-role node lost a role's handler")
	}
}
