package experiments

import (
	"math"
	"strings"
	"testing"

	"nearestpeer/internal/netmodel"
	"nearestpeer/internal/p2p"
)

// TestMitigationScorer pins the one c2 scorer against hand-computed rows,
// on the edge cases the pasted copies each handled implicitly. Hosts sit on
// a line: the true RTT between hosts a and b is |a-b| ms, so peer 1 is 1 ms
// from target 0 (near: under the 10 ms threshold) and peer 50 is far.
func TestMitigationScorer(t *testing.T) {
	lineRTT := func(a, b netmodel.HostID) float64 { return math.Abs(float64(a) - float64(b)) }
	peers := []netmodel.HostID{0, 1, 50}
	const nearOracle, farOracle = 1.0, 50.0
	found := func(peer p2p.NodeID) p2p.FindResult { return p2p.FindResult{Peer: peer, Found: true} }
	miss := p2p.FindResult{Peer: p2p.NoNode}

	type query struct {
		oracleMs float64
		res      *p2p.FindResult // nil: issued, never completed (op deadline)
	}
	cases := []struct {
		name      string
		queries   []query
		issued    int
		queryMsgs int64
		want      MitigationRow
	}{
		{
			name:    "no near peer exists: PNear stays 0, not NaN",
			queries: []query{{farOracle, ptr(found(2))}, {farOracle, ptr(found(2))}},
			issued:  2,
			want:    MitigationRow{Found: 1, NearDenom: 0, PNear: 0, MeanFoundMs: 50},
		},
		{
			name:    "nothing found: MeanFoundMs stays 0, not NaN",
			queries: []query{{nearOracle, &miss}, {farOracle, &miss}},
			issued:  2,
			want:    MitigationRow{Found: 0, NearDenom: 1, PNear: 0, MeanFoundMs: 0},
		},
		{
			name:    "found but far while a near peer existed",
			queries: []query{{nearOracle, ptr(found(2))}, {nearOracle, ptr(found(1))}},
			issued:  2,
			want:    MitigationRow{Found: 1, NearDenom: 2, PNear: 0.5, MeanFoundMs: 25.5},
		},
		{
			name: "found near when the oracle was far must not count",
			// The found peer is 1 ms away but at issue time no live peer was
			// under the threshold (it came up after): neither numerator nor
			// denominator moves.
			queries: []query{{farOracle, ptr(found(1))}, {nearOracle, ptr(found(1))}},
			issued:  2,
			want:    MitigationRow{Found: 1, NearDenom: 1, PNear: 1, MeanFoundMs: 1},
		},
		{
			name:    "zero issued normalises by 1",
			queries: nil,
			issued:  0,
			want:    MitigationRow{},
		},
		{
			name:    "issued but never completed still joins the denominators",
			queries: []query{{nearOracle, nil}, {nearOracle, ptr(found(1))}},
			issued:  2,
			want:    MitigationRow{Found: 0.5, NearDenom: 2, PNear: 0.5, MeanFoundMs: 1},
		},
		{
			name: "counter sums and per-query means",
			queries: []query{
				{nearOracle, &p2p.FindResult{Peer: 1, Found: true, Probes: 3, DeadProbes: 1, RPCs: 2, RPCFails: 1, Hops: 5}},
				{farOracle, &p2p.FindResult{Peer: p2p.NoNode, Probes: 1, DeadProbes: 1, RPCs: 2, Hops: 2}},
				{farOracle, &p2p.FindResult{Peer: p2p.NoNode, RPCs: 2, RPCFails: 2, Hops: 1}},
				{farOracle, &miss},
			},
			issued:    4,
			queryMsgs: 10,
			want: MitigationRow{Found: 0.25, NearDenom: 1, PNear: 1, MeanFoundMs: 1,
				MeanProbes: 1, DeadProbes: 2, MeanLookups: 1.5, MeanHops: 2, LookupFails: 3, MeanMsgs: 2.5},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sc := mitigationScorer{rttMs: lineRTT, peers: peers}
			for _, q := range tc.queries {
				sc.issue(q.oracleMs)
				if q.res != nil {
					sc.result(0, q.oracleMs, *q.res)
				}
			}
			if got := sc.row(tc.issued, tc.queryMsgs); got != tc.want {
				t.Fatalf("row\n got %+v\nwant %+v", got, tc.want)
			}
		})
	}
}

func ptr[T any](v T) *T { return &v }

// TestMitigationRejectsDegenerateInputs: the flag-reachable inputs that used
// to panic (a negative -peers sliced peers[:n], zero peers reached Intn(0))
// or print NaN columns (a static run divided by queries=0) are descriptive
// errors at both dispatch points.
func TestMitigationRejectsDegenerateInputs(t *testing.T) {
	env := SharedEnv(Quick, 1)
	if got := MitigationPeers(env, -1); len(got) != 0 {
		t.Fatalf("MitigationPeers(-1) returned %d peers, want none", len(got))
	}
	two := MitigationPeers(env, 2)
	cases := []struct {
		name    string
		peers   []netmodel.HostID
		queries int
		want    string
	}{
		{"-peers -1", MitigationPeers(env, -1), 5, "at least 2 peers"},
		{"-peers 0", MitigationPeers(env, 0), 5, "at least 2 peers"},
		{"one peer has nobody to find", MitigationPeers(env, 1), 5, "at least 2 peers"},
		{"queries=0", two, 0, "at least 1 query"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := RunWireMitigation(env, tc.peers, MitigationOpts{Scheme: "ucl", Queries: tc.queries, Seed: 1})
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("wire: error %v, want one naming %q", err, tc.want)
			}
			row, err := RunStaticMitigation(env, "ucl", tc.peers, tc.queries, 1)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("static: row %+v error %v, want one naming %q", row, err, tc.want)
			}
		})
	}
	// The smallest legal run scores without NaNs.
	row, err := RunStaticMitigation(env, "ucl", two, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(row.Found) || math.IsNaN(row.MeanProbes) {
		t.Fatalf("2-peer, 1-query static row has NaN columns: %+v", row)
	}
}

// TestMitigationTinyPopulations: every registered scheme at the smallest
// legal population, through both entry points. A scheme whose structure
// wants more peers than it is given (the beacon schemes' dozen beacons
// panicked for every -peers 2..11) must scale down or say so — a valid row
// or a descriptive error, never a panic.
func TestMitigationTinyPopulations(t *testing.T) {
	env := SharedEnv(Quick, 1)
	two := MitigationPeers(env, 2)
	valid := func(t *testing.T, leg string, row MitigationRow, err error) {
		t.Helper()
		if err != nil {
			if len(err.Error()) < 20 {
				t.Errorf("%s: error %q says too little", leg, err)
			}
			return
		}
		for _, v := range []float64{row.Found, row.PNear, row.MeanFoundMs, row.MeanProbes, row.MeanLookups, row.MeanHops, row.MeanMsgs} {
			if math.IsNaN(v) || v < 0 {
				t.Fatalf("%s: row has a NaN or negative column: %+v", leg, row)
			}
		}
		if row.Found > 1 {
			t.Fatalf("%s: found rate %v above 1: %+v", leg, row.Found, row)
		}
	}
	for _, name := range GrandSchemes() {
		t.Run(name, func(t *testing.T) {
			row, err := RunStaticMitigation(env, name, two, 3, 1)
			valid(t, "static", row, err)
			row, err = RunWireMitigation(env, two, MitigationOpts{Scheme: name, Queries: 3, Seed: 1})
			valid(t, "wire", row, err)
		})
	}
}
