// Package tiers implements the Tiers hierarchical nearest-peer scheme
// (Banerjee, Kommareddy, Bhattacharjee — Global Internet 2002): all peers
// form level-0 clusters of bounded radius; each cluster elects a
// representative that joins the next level, and so on until one top
// cluster remains. A joining peer descends the hierarchy: it probes the
// members of the top cluster, picks the closest, descends into that
// representative's cluster, and repeats; the closest member of the final
// level-0 cluster is returned.
package tiers

import (
	"math"
	"sort"

	"nearestpeer/internal/overlay"
	"nearestpeer/internal/rng"
)

// Hierarchy construction uses a 4 ms leaf radius doubling per level, with
// the small bounded clusters of the Tiers paper.
const (
	// radius0Ms is the clustering radius at level 0 (members of a level-0
	// cluster are within this latency of their representative).
	radius0Ms = 4.0
	// radiusMult scales the radius per level.
	radiusMult = 2
	// maxClusterSize bounds cluster membership — Tiers clusters are
	// size-bounded, which is what keeps per-level probing (and therefore
	// query cost) constant, and also what prevents the scheme from
	// degenerating into an exhaustive sweep of a PoP cluster.
	maxClusterSize = 8
	// maxLevels bounds the hierarchy height.
	maxLevels = 16
)

// clusterT is one cluster in the hierarchy.
type clusterT struct {
	rep     int
	members []int
	// children maps a member (a representative at the level below) to its
	// child cluster index at that level; only levels > 0 have children.
	children map[int]int
}

// Hierarchy is a built Tiers hierarchy.
type Hierarchy struct {
	net     *overlay.Network
	members []int
	// levels[0] are the leaf clusters; the last level has one cluster.
	levels [][]clusterT
	src    *rng.Source
}

// New builds the hierarchy bottom-up with leader-based clustering: peers
// are scanned in random order; a peer joins the first existing cluster
// whose representative is within the level radius (measured — maintenance
// probes), otherwise it founds a new cluster. Construction cost is the
// O(n·clusters) probing the Tiers paper accepts.
func New(net *overlay.Network, members []int, seed int64) *Hierarchy {
	h := &Hierarchy{
		net:     net,
		members: append([]int(nil), members...),
		src:     rng.New(seed),
	}

	current := append([]int(nil), members...)
	radius := radius0Ms
	var prevLevel []clusterT
	for level := 0; level < maxLevels; level++ {
		h.src.Shuffle(len(current), func(i, j int) { current[i], current[j] = current[j], current[i] })
		var clusters []clusterT
		for _, p := range current {
			placed := false
			for ci := range clusters {
				if len(clusters[ci].members) >= maxClusterSize {
					continue
				}
				if h.net.MaintProbe(p, clusters[ci].rep) <= radius {
					clusters[ci].members = append(clusters[ci].members, p)
					placed = true
					break
				}
			}
			if !placed {
				clusters = append(clusters, clusterT{rep: p, members: []int{p}})
			}
		}
		// Wire child links: each member of a level>0 cluster represents a
		// cluster one level down.
		if level > 0 {
			childIdx := make(map[int]int, len(prevLevel))
			for ci := range prevLevel {
				childIdx[prevLevel[ci].rep] = ci
			}
			for ci := range clusters {
				clusters[ci].children = make(map[int]int)
				for _, m := range clusters[ci].members {
					clusters[ci].children[m] = childIdx[m]
				}
			}
		}
		h.levels = append(h.levels, clusters)
		if len(clusters) == 1 {
			break
		}
		next := make([]int, 0, len(clusters))
		for _, c := range clusters {
			next = append(next, c.rep)
		}
		current = next
		radius *= radiusMult
		prevLevel = clusters
	}
	// Force a single top cluster if maxLevels ran out: its members are the
	// representatives of the previous top level, and its child links point
	// back into that level.
	top := h.levels[len(h.levels)-1]
	if len(top) > 1 {
		merged := clusterT{rep: top[0].rep, children: make(map[int]int)}
		for ci, c := range top {
			merged.members = append(merged.members, c.rep)
			merged.children[c.rep] = ci
		}
		h.levels = append(h.levels, []clusterT{merged})
	}
	return h
}

// Levels returns the number of hierarchy levels.
func (h *Hierarchy) Levels() int { return len(h.levels) }

// ClustersAt returns the number of clusters at a level.
func (h *Hierarchy) ClustersAt(level int) int { return len(h.levels[level]) }

// FindNearest implements overlay.Finder: descend the hierarchy, probing
// each visited cluster's members and following the closest representative.
func (h *Hierarchy) FindNearest(target int) overlay.Result {
	var probes int64
	hops := 0
	best, bestLat := -1, math.Inf(1)

	level := len(h.levels) - 1
	ci := 0
	for {
		c := &h.levels[level][ci]
		members := append([]int(nil), c.members...)
		sort.Ints(members)
		minID, minLat := -1, math.Inf(1)
		for _, m := range members {
			if m == target {
				continue // the searcher itself can be a member; it is not a candidate
			}
			l := h.net.Probe(m, target)
			probes++
			if l < minLat {
				minID, minLat = m, l
			}
			if l < bestLat {
				best, bestLat = m, l
			}
		}
		hops++
		if level == 0 || minID < 0 {
			break
		}
		next, ok := c.children[minID]
		if !ok {
			break
		}
		ci = next
		level--
	}
	return overlay.Result{Peer: best, LatencyMs: bestLat, Probes: probes, Hops: hops}
}
