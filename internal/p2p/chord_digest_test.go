package p2p

// Chord state-digest golden: a 300-node ring at seeds 1–3 under four
// conditions (lossless, 5% loss + churn, a link-fault burst, and the
// sharded kernel at K=2), with every member's routing and storage state
// and every LookupResult/OpResult hashed after the run. Any change to a
// routing decision — which successor is adopted, which finger a reply
// overwrites, which peer is suspected or evicted, which candidate a lookup
// asks next — moves a digest, so the chord hot path can be rebuilt for
// speed against this file while staying the same protocol.
//
// Regenerate (only when a protocol change is intended) with
//
//	go test ./internal/p2p -run TestChordStateDigestGolden -update

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"hash"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"nearestpeer/internal/faults"
	"nearestpeer/internal/latency"
	"nearestpeer/internal/rng"
	"nearestpeer/internal/sim"
)

var updateGolden = flag.Bool("update", false, "rewrite the p2p golden files")

const (
	digestNodes   = 300
	digestOps     = 36
	digestOpStart = 40 * time.Second
	digestOpGap   = 400 * time.Millisecond
	digestHorizon = 70 * time.Second
	// digestWindow is the sharded kernel's lookahead: every cross-half
	// link's one-way delay is at least 20 ms.
	digestWindow = 15 * time.Millisecond
)

// digestMatrix is two clusters of 150: 2–20 ms RTT inside a half, 40–80 ms
// across, so the halves are a legal two-shard PoP partition.
func digestMatrix() *latency.Dense {
	src := rng.New(2024)
	m := latency.NewDense(digestNodes)
	for i := 0; i < digestNodes; i++ {
		for j := i + 1; j < digestNodes; j++ {
			if digestShard(i) == digestShard(j) {
				m.Set(i, j, 2+18*src.Float64())
			} else {
				m.Set(i, j, 40+40*src.Float64())
			}
		}
	}
	return m
}

func digestShard(id int) int32 {
	if id < digestNodes/2 {
		return 0
	}
	return 1
}

func digestChordConfig() ChordConfig {
	cfg := DefaultChordConfig()
	cfg.Horizon = digestHorizon
	return cfg
}

// digestRun is one condition's ring: the transport, the kernel clock the
// driver schedules on, and a hand-off that moves a driver event to a
// node's home shard (plain After on a serial runtime).
type digestRun struct {
	rt  *Runtime
	ch  *Chord
	at  func(t time.Duration, fn func())
	run func()
	// events reports kernel events executed.
	events func() uint64
}

func newDigestSerial(seed int64, loss float64, plan *faults.Plan) *digestRun {
	k := sim.New()
	rt := New(k, digestMatrix(), Config{RPCTimeout: time.Second}, seed)
	if err := InstallFaults(rt, faults.Lossy(plan, seed, loss)); err != nil {
		panic(err) // the digest's plans are fixed and valid
	}
	return &digestRun{
		rt:     rt,
		ch:     NewChord(rt, digestChordConfig(), seed),
		at:     k.At,
		run:    func() { k.Run() },
		events: func() uint64 { return k.Executed },
	}
}

func newDigestSharded(seed int64) *digestRun {
	shk := sim.NewSharded(2, digestWindow)
	m := digestMatrix()
	shardOf := make([]int32, digestNodes)
	for i := range shardOf {
		shardOf[i] = digestShard(i)
	}
	rt := NewSharded(shk, []latency.Matrix{m, m}, Config{RPCTimeout: time.Second}, seed, shardOf)
	return &digestRun{
		rt:     rt,
		ch:     NewChord(rt, digestChordConfig(), seed),
		at:     shk.Shard(DriverShard).At,
		run:    func() { shk.Run() },
		events: shk.Executed,
	}
}

// drive joins the ring 20 ms apart, optionally churns every node but 0
// from 10 s on, and issues digestOps operations from 40 s: a lookup, a put
// of key i, a get of the previous put's key, repeating. Each op hops to the
// issuer's home shard and writes only its own result slot.
func (d *digestRun) drive(churn bool, seed int64) []string {
	ids := make([]NodeID, digestNodes)
	for i := range ids {
		ids[i] = NodeID(i)
		id := ids[i]
		d.at(time.Duration(i)*20*time.Millisecond, func() { d.ch.Join(id) })
	}
	if churn {
		c := NewChurn(d.rt, ChurnConfig{
			MeanSession:  90 * time.Second,
			MeanOffline:  20 * time.Second,
			GracefulProb: 0.5,
			Horizon:      digestHorizon,
		}, seed)
		c.OnLeave = func(id NodeID, graceful bool) { d.ch.Leave(id, graceful) }
		c.OnJoin = func(id NodeID) { d.ch.Join(id) }
		d.at(10*time.Second, func() { c.Drive(ids[1:]) })
	}
	results := make([]string, digestOps)
	for i := 0; i < digestOps; i++ {
		i := i
		from := NodeID((i * 37) % digestNodes)
		key := fmt.Sprintf("digest/%d", i-i%3+1)
		d.at(digestOpStart+time.Duration(i)*digestOpGap, func() {
			d.rt.Handoff(DriverShard, from, 0, func() {
				switch i % 3 {
				case 0:
					d.ch.Lookup(from, key, func(r LookupResult) { results[i] = fmt.Sprintf("lookup %+v", r) })
				case 1:
					d.ch.Put(from, key, []byte(fmt.Sprintf("v%d@%d", i, from)), func(r OpResult) { results[i] = fmt.Sprintf("put %+v", r) })
				default:
					d.ch.Get(from, key, func(r OpResult) { results[i] = fmt.Sprintf("get %+v", r) })
				}
			})
		})
	}
	d.run()
	return results
}

// chordStateDigest hashes every member's succs/pred/fingers/suspect/data
// (plus the bookkeeping that steers later decisions) in NodeID order.
func chordStateDigest(ch *Chord) string {
	h := sha256.New()
	for id, st := range ch.states {
		if st == nil {
			fmt.Fprintf(h, "%d:-\n", id)
			continue
		}
		fmt.Fprintf(h, "%d:%x succs=%v pred=%d seen=%d fingers=%v next=%d round=%d\n",
			id, st.ringID, st.succs, st.pred, st.predSeen, st.fingers, st.nextFin, st.round)
		writeSortedSuspect(h, st.suspect)
		keys := make([]string, 0, len(st.data))
		for k := range st.data {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(h, " %q=%q", k, st.data[k])
		}
		fmt.Fprintln(h)
	}
	return fmt.Sprintf("%x", h.Sum(nil))[:16]
}

func writeSortedSuspect(h hash.Hash, suspect map[NodeID]int) {
	peers := make([]NodeID, 0, len(suspect))
	for p := range suspect {
		peers = append(peers, p)
	}
	sort.Slice(peers, func(i, j int) bool { return peers[i] < peers[j] })
	for _, p := range peers {
		fmt.Fprintf(h, " s%d=%d", p, suspect[p])
	}
}

func TestChordStateDigestGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("twelve 300-node rings are too heavy for -short")
	}
	burst := func(seed int64) *faults.Plan {
		return &faults.Plan{Seed: seed, Rules: []faults.Rule{{
			Kind: faults.LossBurst, At: 38 * time.Second, For: 10 * time.Second, Prob: 0.4,
			Src: faults.Everyone(), Dst: faults.Everyone(),
		}}}
	}
	var b strings.Builder
	for seed := int64(1); seed <= 3; seed++ {
		for _, tc := range []struct {
			name  string
			churn bool
			mk    func() *digestRun
		}{
			{"lossless", false, func() *digestRun { return newDigestSerial(seed, 0, nil) }},
			{"loss5+churn", true, func() *digestRun { return newDigestSerial(seed, 0.05, nil) }},
			{"fault-burst", false, func() *digestRun { return newDigestSerial(seed, 0, burst(seed)) }},
			{"sharded-k2", false, func() *digestRun { return newDigestSharded(seed) }},
		} {
			d := tc.mk()
			results := d.drive(tc.churn, seed)
			rh := sha256.New()
			for i, r := range results {
				fmt.Fprintf(rh, "%d %s\n", i, r)
			}
			fmt.Fprintf(&b, "seed=%d %-12s members=%d events=%d state=%s results=%x metrics=%+v\n",
				seed, tc.name, d.ch.NumMembers(), d.events(), chordStateDigest(d.ch), rh.Sum(nil)[:8], d.rt.TotalMetrics())
		}
	}
	checkP2PGolden(t, "golden_chord_digest.txt", b.String())
}

func checkP2PGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden %s (run with -update to create): %v", path, err)
	}
	if got != string(want) {
		t.Fatalf("%s drifted: a chord routing decision changed.\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}
