// Package dht implements a Chord distributed hash table (Stoica et al.,
// SIGCOMM 2001) — the key-value mapping infrastructure the paper's Section
// 5 mitigations require ("the participant peers can themselves host the
// key-value maps required above, using one of several DHT designs").
//
// The implementation is a faithful simulation of Chord's structure: a
// 64-bit identifier ring, consistent hashing of node addresses and keys
// (keys are hashed, as the paper prescribes for non-uniform keys like IP
// addresses), successor lists, finger tables, O(log n) iterative lookups
// with hop accounting, and join/leave with key migration.
package dht

import (
	"crypto/sha1"
	"encoding/binary"
	"fmt"
	"sort"
)

// hashBytes maps arbitrary bytes onto the 64-bit ring.
func hashBytes(b []byte) uint64 {
	sum := sha1.Sum(b)
	return binary.BigEndian.Uint64(sum[:8])
}

// HashKey maps a string key onto the ring.
func HashKey(key string) uint64 { return hashBytes([]byte(key)) }

// node is one DHT participant.
type node struct {
	id     uint64
	addr   string
	data   map[string][][]byte
	finger []uint64 // finger[i] = first node at or after id + 2^i
}

// Ring is a Chord ring.
type Ring struct {
	nodes map[uint64]*node
	// sorted node ids for successor computation.
	ids []uint64
	// Lookups and Hops account routing cost.
	Lookups int64
	Hops    int64
}

// New builds a ring over the given node addresses. Duplicate addresses are
// rejected; hash collisions (astronomically unlikely) panic.
func New(addrs []string) *Ring {
	r := &Ring{nodes: make(map[uint64]*node, len(addrs))}
	seen := make(map[string]bool, len(addrs))
	for _, a := range addrs {
		if seen[a] {
			panic(fmt.Sprintf("dht: duplicate node address %q", a))
		}
		seen[a] = true
		r.insertNode(a)
	}
	r.rebuildFingers()
	return r
}

func (r *Ring) insertNode(addr string) *node {
	id := hashBytes([]byte(addr))
	if _, clash := r.nodes[id]; clash {
		panic(fmt.Sprintf("dht: node id collision for %q", addr))
	}
	n := &node{id: id, addr: addr, data: make(map[string][][]byte)}
	r.nodes[id] = n
	i := sort.Search(len(r.ids), func(i int) bool { return r.ids[i] >= id })
	r.ids = append(r.ids, 0)
	copy(r.ids[i+1:], r.ids[i:])
	r.ids[i] = id
	return n
}

// successor returns the first node id at or after k on the ring.
func (r *Ring) successor(k uint64) uint64 {
	i := sort.Search(len(r.ids), func(i int) bool { return r.ids[i] >= k })
	if i == len(r.ids) {
		i = 0 // wrap
	}
	return r.ids[i]
}

// rebuildFingers recomputes every node's finger table. (A real deployment
// stabilises incrementally; the simulation rebuilds after membership
// changes, preserving lookup behaviour.)
func (r *Ring) rebuildFingers() {
	for _, n := range r.nodes {
		n.finger = n.finger[:0]
		for i := 0; i < 64; i++ {
			target := n.id + 1<<uint(i) // wrapping addition is ring arithmetic
			n.finger = append(n.finger, r.successor(target))
		}
	}
}

// Between reports whether x lies in the open ring interval (a, b). When
// a == b the interval is the whole ring minus a (Chord's convention). It is
// exported because the message-level Chord protocol (internal/p2p) routes
// with the same ring arithmetic.
func Between(x, a, b uint64) bool {
	switch {
	case a < b:
		return x > a && x < b
	case a > b:
		return x > a || x < b // wrapped interval
	default:
		return x != a
	}
}

// BetweenRightIncl reports whether x lies in the half-open ring interval
// (a, b] — the ownership test: the successor of a key k is the first node n
// with k ∈ (pred(n), n].
func BetweenRightIncl(x, a, b uint64) bool { return x == b || Between(x, a, b) }

// RingDist returns the clockwise distance from a to b on the ring —
// how far a lookup at a still has to travel to reach b.
func RingDist(a, b uint64) uint64 { return b - a } // wrapping subtraction is ring arithmetic

// lookup routes iteratively from a starting node to the key's successor,
// returning the owner and the number of routing hops.
func (r *Ring) lookup(from uint64, key uint64) (uint64, int) {
	owner := r.successor(key)
	cur := from
	hops := 0
	for cur != owner {
		n := r.nodes[cur]
		// Closest preceding finger that moves toward the key without
		// overshooting.
		next := cur
		for i := 63; i >= 0; i-- {
			f := n.finger[i]
			if f != cur && Between(f, cur, key) {
				next = f
				break
			}
		}
		if next == cur {
			// Fingers exhausted: step to immediate successor.
			next = r.successor(cur + 1)
		}
		cur = next
		hops++
		if hops > 2*len(r.ids) {
			panic("dht: lookup failed to converge")
		}
	}
	return owner, hops
}

// startNode picks a deterministic entry point for a lookup.
func (r *Ring) startNode(key string) uint64 {
	// Enter at the node owning the hash of the key reversed — an
	// arbitrary but deterministic spread of entry points.
	rev := make([]byte, len(key))
	for i := 0; i < len(key); i++ {
		rev[i] = key[len(key)-1-i]
	}
	return r.successor(hashBytes(rev))
}

// Put stores value under key (appending to the key's value set), routing
// from an arbitrary entry node and accounting hops.
func (r *Ring) Put(key string, value []byte) {
	k := HashKey(key)
	owner, hops := r.lookup(r.startNode(key), k)
	r.Lookups++
	r.Hops += int64(hops)
	n := r.nodes[owner]
	n.data[key] = append(n.data[key], append([]byte(nil), value...))
}

// Get returns all values stored under key.
func (r *Ring) Get(key string) [][]byte {
	k := HashKey(key)
	owner, hops := r.lookup(r.startNode(key), k)
	r.Lookups++
	r.Hops += int64(hops)
	vals := r.nodes[owner].data[key]
	out := make([][]byte, len(vals))
	for i, v := range vals {
		out[i] = append([]byte(nil), v...)
	}
	return out
}

// Remove deletes values equal to value under key (all of them); removing a
// peer's mapping when it leaves the P2P system.
func (r *Ring) Remove(key string, value []byte) {
	k := HashKey(key)
	owner, hops := r.lookup(r.startNode(key), k)
	r.Lookups++
	r.Hops += int64(hops)
	n := r.nodes[owner]
	vals := n.data[key]
	kept := vals[:0]
	for _, v := range vals {
		if string(v) != string(value) {
			kept = append(kept, v)
		}
	}
	if len(kept) == 0 {
		delete(n.data, key)
	} else {
		n.data[key] = kept
	}
}

// Join adds a node and migrates the keys it now owns.
func (r *Ring) Join(addr string) {
	n := r.insertNode(addr)
	r.rebuildFingers()
	// Keys whose hash now maps to the new node move from its successor.
	succID := r.successor(n.id + 1)
	succ := r.nodes[succID]
	for key, vals := range succ.data {
		if r.successor(HashKey(key)) == n.id {
			n.data[key] = vals
			delete(succ.data, key)
		}
	}
}

// Leave removes a node, handing its keys to its successor.
func (r *Ring) Leave(addr string) {
	id := hashBytes([]byte(addr))
	n, ok := r.nodes[id]
	if !ok {
		panic(fmt.Sprintf("dht: Leave of unknown node %q", addr))
	}
	if len(r.ids) == 1 {
		panic("dht: cannot remove the last node")
	}
	i := sort.Search(len(r.ids), func(i int) bool { return r.ids[i] >= id })
	r.ids = append(r.ids[:i], r.ids[i+1:]...)
	delete(r.nodes, id)
	succ := r.nodes[r.successor(id)]
	for key, vals := range n.data {
		succ.data[key] = append(succ.data[key], vals...)
	}
	r.rebuildFingers()
}

// OwnerOf returns the address of the node responsible for key (tests).
func (r *Ring) OwnerOf(key string) string {
	return r.nodes[r.successor(HashKey(key))].addr
}

// MeanLookupHops reports the average hops per lookup so far.
func (r *Ring) MeanLookupHops() float64 {
	if r.Lookups == 0 {
		return 0
	}
	return float64(r.Hops) / float64(r.Lookups)
}
