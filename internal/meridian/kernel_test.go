package meridian

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"nearestpeer/internal/latency"
	"nearestpeer/internal/overlay"
	"nearestpeer/internal/rng"
	"nearestpeer/internal/testmat"
)

var allSelections = []RingSelection{SelectHypervolume, SelectMaxMin, SelectRandom}

// diffNet is one latency space of the differential tests. nets returns two
// Networks over it with identical, independent noise streams: they stay in
// step exactly as long as both sides issue the same probes in the same order.
type diffNet struct {
	name  string
	m     latency.Matrix
	noisy bool
}

func (d diffNet) nets() (live, ref *overlay.Network) {
	live, ref = overlay.NewNetwork(d.m), overlay.NewNetwork(d.m)
	if d.noisy {
		live.SetNoise(0.05, 0.3, 77)
		ref.SetNoise(0.05, 0.3, 77)
	}
	return live, ref
}

func diffNets() []diffNet {
	// 250 end-networks per cluster is the clustering condition: same-cluster
	// candidates look alike from everywhere, so their residuals tie and the
	// first in pool order has to win.
	clustered, _ := testmat.Clustered(250, 600, 5)
	euclid := euclideanMatrix(400, 23)
	// A square lattice is full of mirror-image candidates, whose residuals
	// are equal in exact arithmetic: rounding alone picks the winner, so this
	// is the space that catches a change in float operation order.
	lattice := latency.NewDense(400)
	for i := 0; i < 400; i++ {
		for j := i + 1; j < 400; j++ {
			lattice.Set(i, j, 3*math.Hypot(float64(i%20-j%20), float64(i/20-j/20)))
		}
	}
	return []diffNet{
		{"lattice", lattice, false},
		{"euclidean", euclid, false},
		{"clustered", clustered, false},
		{"noisy", euclid, true},
		// The sweep gathers *Dense and *Clustered rows through their own
		// row reads and every other matrix one LatencyMs at a time; this
		// one takes the second path.
		{"lattice-plain", plainMatrix{lattice}, false},
	}
}

// plainMatrix hides a matrix's concrete type behind the Matrix interface.
type plainMatrix struct{ latency.Matrix }

func TestSelectionMatchesReference(t *testing.T) {
	for _, d := range diffNets() {
		for _, sel := range allSelections {
			for _, k := range []int{2, 3, 16} {
				// Residuals are scored sixteen candidates at a time (the
				// portable kernel four at a time); at k = 16 these pools
				// leave short last blocks of many lengths, in both the
				// first and the last round.
				for _, size := range []int{17, 18, 19, 40, 64, 65, 150} {
					if size <= k {
						continue
					}
					t.Run(fmt.Sprintf("%s/%v/k%d/pool%d", d.name, sel, k, size), func(t *testing.T) {
						checkSelectRing(t, d, sel, k, size)
					})
				}
			}
		}
	}
}

// checkSelectRing has node 0 trim a ring from candidates 1..size with the
// live kernel, under each residual kernel this CPU has, and the reference,
// and fails unless both keep the same members in the same order, carrying
// the owner's latencies, for the same number of maintenance probes. It
// needs size > k >= 2 (the reference's RingSize 1 keeps two members).
func checkSelectRing(t *testing.T, d diffNet, sel RingSelection, k, size int) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Selection, cfg.RingSize = sel, k
	_, refNet := d.nets()
	ref := &refOverlay{cfg: cfg, net: refNet, src: rng.New(9)}
	owner := &refNode{ringLat: map[int]float64{}}
	ids := make([]int, size)
	for i := range ids {
		ids[i] = i + 1
		owner.ringLat[ids[i]] = refNet.MaintProbe(0, ids[i])
	}
	want := ref.selectRing(owner, ids)

	eachKernel(func(kernel string) {
		liveNet, _ := d.nets()
		live := &Overlay{cfg: cfg, net: liveNet, src: rng.New(9)}
		cands := make([]ringEntry, size)
		for i, id := range ids {
			cands[i] = ringEntry{id, liveNet.MaintProbe(0, id)}
		}
		live.selectRing(cands)
		var got []int
		for _, e := range live.rings {
			got = append(got, e.id)
			if e.lat != owner.ringLat[e.id] {
				t.Errorf("%s kernel: member %d carries latency %v, owner measured %v", kernel, e.id, e.lat, owner.ringLat[e.id])
			}
		}
		if !slices.Equal(got, want) {
			t.Errorf("%s kernel: selected\n got %v\nwant %v", kernel, got, want)
		}
		if g, w := liveNet.MaintProbes(), refNet.MaintProbes(); g != w {
			t.Errorf("%s kernel: maintenance probes: got %d, want %d", kernel, g, w)
		}
	})
}

// FuzzSelectRing holds selectRing to the reference on small spaces of
// coarse latencies, where ties are the rule: lats, read cyclically, gives
// pair (i, j) of a (pool+1)-node matrix one of eight levels 5 ms apart.
// size picks a pool of 3 to 80 candidates (over the 64 cap too), k a ring
// size in [2, min(pool, 64)), mode the selection, noisy the probe jitter.
func FuzzSelectRing(f *testing.F) {
	// A 5×5 Manhattan lattice with node 0 in a corner: mirror-image
	// candidates whose residuals tie exactly, as in diffNets' lattice.
	f.Add(manhattanLattice(5), uint8(24-3), uint8(16-2), uint8(SelectHypervolume), false)
	// Irregular levels under jitter, over the pool cap.
	f.Add([]byte("\x03\x07\x01\x04\x04\x00\x06\x02\x05"), uint8(70-3), uint8(16-2), uint8(SelectHypervolume), true)
	// Every latency equal: the first in pool order wins every round.
	f.Add([]byte{}, uint8(20-3), uint8(16-2), uint8(SelectHypervolume), false)
	f.Add([]byte{1, 2}, uint8(19-3), uint8(5-2), uint8(SelectHypervolume), false)
	f.Add(manhattanLattice(5), uint8(24-3), uint8(7-2), uint8(SelectMaxMin), false)
	f.Add([]byte{5, 0, 7, 3}, uint8(66-3), uint8(16-2), uint8(SelectRandom), true)
	f.Fuzz(func(t *testing.T, lats []byte, size, k, mode uint8, noisy bool) {
		pool := 3 + int(size)%78
		ringSize := 2 + int(k)%(min(pool, maxSelectionPool)-2)
		sel := allSelections[int(mode)%len(allSelections)]
		m := latency.NewDense(pool + 1)
		x := 0
		for i := 0; i <= pool; i++ {
			for j := i + 1; j <= pool; j++ {
				level := 0
				if len(lats) > 0 {
					level = int(lats[x%len(lats)] % 8)
				}
				x++
				m.Set(i, j, 5*float64(1+level))
			}
		}
		checkSelectRing(t, diffNet{"fuzz", m, noisy}, sel, ringSize, pool)
	})
}

// manhattanLattice encodes a w×w grid's Manhattan distances (in 5 ms
// levels, so w <= 5) in FuzzSelectRing's pair order.
func manhattanLattice(w int) []byte {
	var out []byte
	for i := 0; i < w*w; i++ {
		for j := i + 1; j < w*w; j++ {
			dx, dy := i%w-j%w, i/w-j/w
			out = append(out, byte(max(dx, -dx)+max(dy, -dy)-1))
		}
	}
	return out
}

func TestOverlayMatchesReference(t *testing.T) {
	for _, d := range diffNets() {
		for _, sel := range allSelections {
			// Everyone as a candidate (Fig. 8's setting: pools beyond the
			// cap) and a gossip sample smaller than the membership.
			for _, candidates := range []int{1 << 20, 90} {
				t.Run(fmt.Sprintf("%s/%v/cands%d", d.name, sel, candidates), func(t *testing.T) {
					cfg := DefaultConfig()
					cfg.Selection, cfg.CandidatesPerNode = sel, candidates
					members, targets := overlay.Split(d.m.N(), 30, 3)
					members = members[:140] // the reference build is slow, more so under -race
					targets = append(targets, members[:5]...)
					// The reference is built and walked once; each
					// residual kernel's overlay is held to its record.
					_, refNet := d.nets()
					ref := newRefOverlay(refNet, members, cfg, 11)
					wantMaint := refNet.MaintProbes()
					wantRings := make(map[int][][]int, len(members))
					for _, id := range members {
						wantRings[id] = ref.RingsOf(id)
					}
					wantWalks := make([]overlay.Result, len(targets))
					for i, tgt := range targets {
						wantWalks[i] = ref.FindNearest(tgt)
					}

					eachKernel(func(kernel string) {
						liveNet, _ := d.nets()
						live := New(liveNet, members, cfg, 11)
						if g := liveNet.MaintProbes(); g != wantMaint {
							t.Fatalf("%s kernel: maintenance probes: got %d, want %d", kernel, g, wantMaint)
						}
						for _, id := range members {
							got, want := live.RingsOf(id), wantRings[id]
							for r := range want {
								if !slices.Equal(got[r], want[r]) {
									t.Fatalf("%s kernel: node %d ring %d\n got %v\nwant %v", kernel, id, r, got[r], want[r])
								}
								for _, mbr := range want[r] {
									g, _ := live.RingLatOf(id, mbr)
									if w, _ := ref.RingLatOf(id, mbr); g != w {
										t.Fatalf("%s kernel: node %d -> %d latency: got %v, want %v", kernel, id, mbr, g, w)
									}
								}
							}
						}
						// The walk: same start draws, same probes, same answer.
						for i, tgt := range targets {
							if g, w := live.FindNearest(tgt), wantWalks[i]; g != w {
								t.Fatalf("%s kernel: FindNearest(%d): got %+v, want %+v", kernel, tgt, g, w)
							}
						}
						if g, w := liveNet.QueryProbes(), refNet.QueryProbes(); g != w {
							t.Fatalf("%s kernel: query probes: got %d, want %d", kernel, g, w)
						}
					})
				})
			}
		}
	}
}

func TestRingNeverExceedsRingSize(t *testing.T) {
	m := euclideanMatrix(300, 1)
	members, _ := overlay.Split(300, 20, 2)
	for _, k := range []int{1, 2, 3, 16} {
		for _, sel := range allSelections {
			cfg := DefaultConfig()
			cfg.RingSize, cfg.Selection = k, sel
			o := New(overlay.NewNetwork(m), members, cfg, 3)
			full := 0
			for _, id := range members {
				for r, ring := range o.RingsOf(id) {
					if len(ring) > k {
						t.Fatalf("RingSize %d, %v: node %d ring %d holds %d members", k, sel, id, r, len(ring))
					}
					if len(ring) == k {
						full++
					}
				}
			}
			if full == 0 {
				t.Fatalf("RingSize %d, %v: no ring was ever filled", k, sel)
			}
		}
	}
}

func TestSelectRingAllocs(t *testing.T) {
	m := euclideanMatrix(400, 1)
	members, targets := overlay.Split(400, 20, 2)
	for _, sel := range allSelections {
		cfg := DefaultConfig()
		cfg.Selection = sel
		o := New(overlay.NewNetwork(m), members, cfg, 3)
		for _, size := range []int{40, 150} { // under and over the pool cap
			cands := make([]ringEntry, size)
			for i := range cands {
				cands[i] = ringEntry{members[i+1], o.net.MaintProbe(members[0], members[i+1])}
			}
			o.selectRing(cands) // grow the permutation storage once
			// The one allocation allowed is the ring itself; appended to
			// o.rings' spare capacity it costs none.
			if avg := testing.AllocsPerRun(20, func() {
				o.rings = o.rings[:0]
				o.selectRing(cands)
			}); avg > 1 {
				t.Errorf("%v over %d candidates: %v allocs per selection, want <= 1", sel, size, avg)
			}
		}
	}

	o := New(overlay.NewNetwork(m), members, DefaultConfig(), 3)
	for _, tgt := range targets {
		o.FindNearest(tgt) // warm the candidate scratch
	}
	i := 0
	if avg := testing.AllocsPerRun(200, func() {
		o.FindNearest(targets[i%len(targets)])
		i++
	}); avg != 0 {
		t.Errorf("FindNearest: %v allocs per query, want 0", avg)
	}
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config rejected: %v", err)
	}
	bad := map[string]func(*Config){
		"RingSize":          func(c *Config) { c.RingSize = -1 },
		"CandidatesPerNode": func(c *Config) { c.CandidatesPerNode = -1 },
	}
	for field, mutate := range bad {
		cfg := DefaultConfig()
		mutate(&cfg)
		if err := cfg.Validate(); err == nil || !strings.Contains(err.Error(), field) {
			t.Errorf("bad %s: got error %v", field, err)
		}
	}
}
