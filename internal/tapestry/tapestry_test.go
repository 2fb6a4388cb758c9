package tapestry

import (
	"testing"

	"nearestpeer/internal/overlay"
	"nearestpeer/internal/testmat"
)

func TestSharedPrefixDigits(t *testing.T) {
	cases := []struct {
		a, b uint32
		want int
	}{
		{0x12345678, 0x12345678, 8},
		{0x12345678, 0x12345679, 7},
		{0x12345678, 0x22345678, 0},
		{0xABCD0000, 0xABCE0000, 3},
	}
	for _, c := range cases {
		if got := sharedPrefixDigits(c.a, c.b); got != c.want {
			t.Errorf("sharedPrefixDigits(%x, %x) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestLevelTablesWellFormed(t *testing.T) {
	m := testmat.Euclidean(200, 1)
	net := overlay.NewNetwork(m)
	members, _ := overlay.Split(200, 20, 2)
	o := New(net, members, 3)

	for _, id := range members {
		levels := o.LevelsOf(id)
		if len(levels) != digits+1 {
			t.Fatalf("node %d has %d levels", id, len(levels))
		}
		selfID := o.HexID(id)
		for lvl, tbl := range levels {
			if len(tbl) > neighborsPerLevel {
				t.Fatalf("level %d holds %d > %d", lvl, len(tbl), neighborsPerLevel)
			}
			for _, nb := range tbl {
				if nb == id {
					t.Fatal("self in level table")
				}
				if got := sharedPrefixDigits(selfID, o.HexID(nb)); got < lvl {
					t.Fatalf("level %d member shares only %d digits", lvl, got)
				}
			}
		}
		// Level 0 must hold the latency-closest members overall.
		if len(levels[0]) > 0 {
			first := levels[0][0]
			l0, _ := latOf(o, id, first)
			for _, other := range members {
				if other == id {
					continue
				}
				if l, ok := latOf(o, id, other); ok && l < l0-1e-9 {
					// other is closer than the table's closest entry —
					// allowed only if other is also in the table.
					found := false
					for _, nb := range levels[0] {
						if nb == other {
							found = true
							break
						}
					}
					if !found {
						t.Fatalf("node %d level-0 misses closer member %d (%v < %v)", id, other, l, l0)
					}
				}
			}
		}
	}
}

func latOf(o *Overlay, a, b int) (float64, bool) {
	l, ok := o.nodes[a].lat[b]
	return l, ok
}

func TestFindNearestEuclidean(t *testing.T) {
	const n = 300
	m := testmat.Euclidean(n, 7)
	net := overlay.NewNetwork(m)
	members, targets := overlay.Split(n, 30, 5)
	o := New(net, members, 9)

	good := 0
	for _, tgt := range targets {
		res := o.FindNearest(tgt)
		oracle := overlay.TrueNearest(m, tgt, members)
		if res.Peer == oracle.Peer || res.LatencyMs <= 2*oracle.LatencyMs+0.5 {
			good++
		}
	}
	if good < len(targets)*6/10 {
		t.Fatalf("only %d/%d queries near-optimal", good, len(targets))
	}
}

func TestClusteringDefeatsSearch(t *testing.T) {
	m, gt := testmat.Clustered(100, 1000, 11)
	net := overlay.NewNetwork(m)
	members, targets := overlay.Split(m.N(), 80, 3)
	o := New(net, members, 5)
	exact := 0
	for _, tgt := range targets {
		res := o.FindNearest(tgt)
		if res.Peer >= 0 && gt.SameEN(res.Peer, tgt) {
			exact++
		}
	}
	if frac := float64(exact) / float64(len(targets)); frac > 0.4 {
		t.Fatalf("Tapestry exact rate %v under clustering; expected failure", frac)
	}
}
