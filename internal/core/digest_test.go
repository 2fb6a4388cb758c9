package core

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"nearestpeer/internal/measure"
	"nearestpeer/internal/netmodel"
)

var updateDigest = flag.Bool("update", false, "rewrite testdata/golden_cascade_digest.txt")

// TestCascadeDigestGolden pins every answer the composite service gives,
// not only a5's three summary rows: for each configuration, every member and
// a hundred joining non-members ask FindNearest, and each Result (peer, RTT
// bits, method, probes, messages, stages run) is hashed. Any changed stage
// decision, reach rule, tie-break or bill moves a digest. Regenerate with
//
//	go test ./internal/core -run TestCascadeDigestGolden -update
//
// only when an answer change is intended.
func TestCascadeDigestGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("builds six services over a 600-peer population")
	}
	top := netmodel.Generate(netmodel.DefaultConfig(), 12)
	tools := measure.NewTools(top, measure.DefaultConfig(), 9)
	var peers, joiners []netmodel.HostID
	for i := range top.Hosts {
		h := &top.Hosts[i]
		switch {
		case h.DNS != nil:
		case h.RespondsTCP && len(peers) < 600:
			peers = append(peers, netmodel.HostID(i))
		case !h.RespondsTCP && len(joiners) < 100:
			joiners = append(joiners, netmodel.HostID(i))
		}
	}
	targets := append(append([]netmodel.HostID(nil), peers...), joiners...)

	multicastOnly := func(crossVLAN float64) Config {
		c := DefaultConfig()
		c.UseUCL, c.UsePrefix, c.UseMeridian = false, false, false
		c.CrossVLANProb = crossVLAN
		return c
	}
	noMulticast := DefaultConfig()
	noMulticast.UseMulticast = false
	everyStage := DefaultConfig()
	everyStage.SatisfiedMs = 0
	variants := []struct {
		name string
		cfg  Config
	}{
		{"full-cascade", DefaultConfig()},
		{"multicast-only", multicastOnly(DefaultConfig().CrossVLANProb)},
		{"multicast-own-vlan", multicastOnly(0)},
		{"multicast-routed", multicastOnly(1)},
		{"no-multicast", noMulticast},
		{"every-stage", everyStage},
	}

	var b strings.Builder
	fmt.Fprintf(&b, "%d members, %d joiners\n", len(peers), len(joiners))
	for _, v := range variants {
		svc := NewService(top, tools, peers, v.cfg, 5)
		h := sha256.New()
		var found, sameEN int
		var probes, messages int64
		for _, q := range targets {
			r := svc.FindNearest(q)
			fmt.Fprintf(h, "%d %d %x %s %d %d %v\n", q, r.Peer, math.Float64bits(r.RTTms), r.Method, r.Probes, r.Messages, r.StagesRun)
			if r.Peer >= 0 {
				found++
				if top.SameEN(q, r.Peer) {
					sameEN++
				}
			}
			probes += r.Probes
			messages += r.Messages
		}
		fmt.Fprintf(&b, "%-20s found=%d sameEN=%d probes=%d messages=%d %x\n", v.name, found, sameEN, probes, messages, h.Sum(nil))
	}

	path := filepath.Join("testdata", "golden_cascade_digest.txt")
	if *updateDigest {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden %s (run with -update to create): %v", path, err)
	}
	if got := b.String(); got != string(want) {
		t.Fatalf("cascade answers drifted from %s.\n--- got ---\n%s--- want ---\n%s", path, got, want)
	}
}
