package experiments

import (
	"fmt"
	"testing"

	"nearestpeer/internal/obs"
)

// TestEveryQuerySchemeTraced: p2p.Query is the flight recorder's one choke
// point, so every scheme whose wire charges its bill through it leaves a
// trace, and attaching the recorder moves no byte of its row. Each
// GrandSchemes name but expanding (its rounds are multicasts, not Query
// requests) runs lossless and under loss + churn, with and without a
// recorder. An answered hop to another node carries an RTT (a request a
// node sends itself, such as a member's walk starting at home, takes
// none). ucl and ipprefix may leave only chord hops: their DHT Gets
// record as chord lookups, and a query whose Gets find no hint pings
// nobody.
func TestEveryQuerySchemeTraced(t *testing.T) {
	if testing.Short() {
		t.Skip("wire runs too heavy for -short")
	}
	env := SharedEnv(Quick, 1)
	peers := MitigationPeers(env, 60)
	conds := []struct {
		name  string
		loss  float64
		churn bool
	}{{"lossless", 0, false}, {"loss+churn", 0.05, true}}
	for _, scheme := range GrandSchemes() {
		if scheme == "expanding" {
			continue
		}
		for _, c := range conds {
			t.Run(scheme+"/"+c.name, func(t *testing.T) {
				opts := MitigationOpts{Scheme: scheme, Loss: c.loss, Churn: c.churn, Queries: 8, Seed: 1}
				plain, err := RunWireMitigation(env, peers, opts)
				if err != nil {
					t.Fatal(err)
				}
				opts.Recorder = obs.NewRecorder(1 << 14)
				traced, err := RunWireMitigation(env, peers, opts)
				if err != nil {
					t.Fatal(err)
				}
				if got, want := fmt.Sprintf("%+v", traced), fmt.Sprintf("%+v", plain); got != want {
					t.Fatalf("row differs with a recorder attached:\ntraced %s\nplain  %s", got, want)
				}
				hops := opts.Recorder.Snapshot()
				if len(hops) == 0 {
					t.Fatal("empty trace")
				}
				own := 0
				for _, h := range hops {
					if h.Lookup == 0 {
						t.Fatalf("hop outside any lookup: %+v", h)
					}
					if h.Outcome != obs.HopTimeout && h.From != h.To && h.RTTms <= 0 {
						t.Fatalf("answered hop without an RTT: %+v", h)
					}
					if h.Scheme == scheme {
						own++
					}
				}
				if own == 0 && scheme != "ucl" && scheme != "ipprefix" {
					t.Fatalf("%d hops, none under %q", len(hops), scheme)
				}
			})
		}
	}
}
