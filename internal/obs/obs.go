// Package obs is the simulation-native observability layer: a preallocated
// metrics registry (per-node and per-message-type counters plus a
// log-spaced lookup-latency histogram), a fixed-capacity lookup flight recorder, and a
// periodic health sampler driven by typed kernel events.
//
// The package deliberately depends only on internal/sim and internal/stats.
// internal/p2p imports it (the runtime carries optional *Registry and
// *Recorder hooks behind nil checks), so obs identifies nodes by plain int
// matrix index rather than p2p.NodeID to keep the import graph acyclic.
//
// The discipline matches the runtime's own: everything is sized up front,
// the steady-state write paths (NoteSend, NoteRecv, ObserveLookupMs, Record, one
// sampler tick) allocate nothing, and a runtime with no registry attached
// pays exactly one nil compare per message.
package obs

import (
	"sort"

	"nearestpeer/internal/stats"
)

// Histogram bounds for the registry's lookup-latency histogram: 0.1 ms to two
// virtual minutes spans everything from a single LAN hop to a lookup that
// burned its whole deadline, at ~15% per-bin resolution.
const (
	histLoMs  = 0.1
	histHiMs  = 120_000
	histNBins = 96
)

// Registry is the typed metrics registry for one runtime: dense per-node
// send/receive counters, per-message-type counters, and an incremental
// log-spaced histogram of lookup latency. All storage is preallocated at
// construction (the per-type table grows only when a message type is seen
// for the first time), so every note/observe call is allocation-free in
// steady state.
type Registry struct {
	nodeSent   []int64
	nodeRecv   []int64
	typeIdx    map[string]int
	typeNames  []string
	typeCounts []int64
	lookupMs   *stats.Histogram
}

// NewRegistry builds a registry for a population of nodes (ids must stay in
// [0, population)).
func NewRegistry(population int) *Registry {
	if population < 0 {
		population = 0
	}
	return &Registry{
		nodeSent: make([]int64, population),
		nodeRecv: make([]int64, population),
		typeIdx:  make(map[string]int, 32),
		lookupMs: stats.NewEmptyLogHistogram(histLoMs, histHiMs, histNBins),
	}
}

// NoteSend records one envelope of the given type handed to the transport
// by node. A map read on a string key does not allocate, so once every
// message type in the workload has been seen the call is allocation-free.
func (r *Registry) NoteSend(node int, typ string) {
	if node >= 0 && node < len(r.nodeSent) {
		r.nodeSent[node]++
	}
	i, ok := r.typeIdx[typ]
	if !ok {
		i = len(r.typeCounts)
		r.typeIdx[typ] = i
		r.typeNames = append(r.typeNames, typ)
		r.typeCounts = append(r.typeCounts, 0)
	}
	r.typeCounts[i]++
}

// NoteRecv records one envelope delivered to node's inbox.
func (r *Registry) NoteRecv(node int) {
	if node >= 0 && node < len(r.nodeRecv) {
		r.nodeRecv[node]++
	}
}

// ObserveLookupMs adds one end-to-end lookup latency (virtual milliseconds)
// to the lookup histogram.
func (r *Registry) ObserveLookupMs(ms float64) { r.lookupMs.Observe(ms) }

// SentByNode returns the per-node sent-message counters, indexed by node
// id. The slice is the registry's own storage: read-only for callers.
func (r *Registry) SentByNode() []int64 { return r.nodeSent }

// RecvByNode returns the per-node delivered-message counters, indexed by
// node id. The slice is the registry's own storage: read-only for callers.
func (r *Registry) RecvByNode() []int64 { return r.nodeRecv }

// TypeCount returns how many messages of the given type have been sent.
func (r *Registry) TypeCount(typ string) int64 {
	if i, ok := r.typeIdx[typ]; ok {
		return r.typeCounts[i]
	}
	return 0
}

// TypeTally is one per-message-type counter in a registry snapshot.
type TypeTally struct {
	// Type is the wire message type tag.
	Type string
	// Count is how many envelopes of that type were sent.
	Count int64
}

// TopTypes returns the n most-sent message types, ordered by descending
// count with ties broken by type name — a deterministic summary of the
// wire traffic mix. It allocates and is meant for end-of-run reporting.
func (r *Registry) TopTypes(n int) []TypeTally {
	all := make([]TypeTally, len(r.typeNames))
	for i, name := range r.typeNames {
		all[i] = TypeTally{Type: name, Count: r.typeCounts[i]}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Count != all[j].Count {
			return all[i].Count > all[j].Count
		}
		return all[i].Type < all[j].Type
	})
	if n > 0 && n < len(all) {
		all = all[:n]
	}
	return all
}

// LookupQuantileMs estimates the q-th quantile of the recorded lookup
// latencies from the log-spaced histogram (resolution: one bin, ~15%).
func (r *Registry) LookupQuantileMs(q float64) float64 { return r.lookupMs.Quantile(q) }

// Lookups returns how many lookup latencies have been observed.
func (r *Registry) Lookups() int { return r.lookupMs.Total() }
