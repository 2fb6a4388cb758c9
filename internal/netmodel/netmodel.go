// Package netmodel implements the generative Internet model this
// reproduction measures and simulates against.
//
// The paper's entire argument rests on the structure of the Internet "last
// hop" (its Section 2): an ISP PoP is a star hub; end-networks (campus
// networks, extended LANs) hang off it through short chains of aggregation
// routers; latencies inside an end-network are measured in microseconds
// while latencies across end-networks of the same PoP are milliseconds and
// roughly equal. netmodel makes every one of those structural facts an
// explicit, generated object: ASes, cities, PoPs with core-router sets
// (cluster-hubs), access chains, end-networks with VLAN structure, home
// (broadband) hosts, DNS domains, and an IPv4 address plan.
//
// The model is deliberately a *routing* model, not a packet model: the unit
// of truth is the one-way latency along the routed path between two
// attachment points. The measurement tools in internal/measure observe this
// world through the same apertures the paper had — ping, traceroute
// (rockettrace), TCP-connect timing and King — including their error
// sources.
package netmodel

import (
	"fmt"
	"time"
)

// Identifier types. Everything is a dense small integer so experiments over
// hundreds of thousands of hosts stay cheap and allocation-free.
type (
	// HostID identifies a host (end-host, peer, DNS server, vantage point).
	HostID int32
	// RouterID identifies a router.
	RouterID int32
	// ENID identifies an end-network.
	ENID int32
	// PoPID identifies an ISP point of presence.
	PoPID int32
	// ASID identifies an autonomous system (ISP).
	ASID int32
	// CityID identifies a city.
	CityID int32
)

// NoRouter is the sentinel for "no such router".
const NoRouter RouterID = -1

// RouterKind classifies a router's role in the topology.
type RouterKind uint8

const (
	// KindCore is a PoP core router — part of a cluster-hub.
	KindCore RouterKind = iota
	// KindAgg is an access aggregation router between end-networks and a
	// PoP core (the funnel-in structure of the paper's Figure 1).
	KindAgg
	// KindBackbone is a long-haul router between PoPs.
	KindBackbone
)

// String names the router kind ("core", "agg", "backbone").
func (k RouterKind) String() string {
	switch k {
	case KindCore:
		return "core"
	case KindAgg:
		return "agg"
	case KindBackbone:
		return "backbone"
	default:
		return fmt.Sprintf("RouterKind(%d)", uint8(k))
	}
}

// City is a geographic location. Coordinates are in a synthetic plane whose
// unit distances convert to backbone propagation latency.
type City struct {
	ID   CityID
	Name string
	Code string // three-letter code embedded in router DNS names
	X, Y float64
}

// AS is an autonomous system (an ISP or a large hosting provider).
type AS struct {
	ID     ASID
	Number int    // AS number, e.g. 7018
	Name   string // short name embedded in router DNS names
	Blocks []IPBlock
}

// Router is a router. Name carries the rockettrace-visible DNS name, which
// encodes an (AS, city) annotation; with small probability the name is
// misconfigured and encodes the wrong city, an error source the paper calls
// out in Section 3.1.
type Router struct {
	ID        RouterID
	AS        ASID
	City      CityID
	PoP       PoPID
	Kind      RouterKind
	Name      string
	NameCity  CityID // city the DNS name claims (== City unless misconfigured)
	Anonymous bool   // does not answer traceroute (hop shows '*')
	// Customer marks routers owned by the customer organisation rather
	// than the ISP (campus border and internal routers). Their DNS names
	// carry no usable (AS, city) annotation, so rockettrace cannot place
	// them in a PoP — which is precisely how the paper tells "a closer
	// common router than the PoP" apart from the PoP itself.
	Customer bool
	// CoreLatMs is the one-way latency in milliseconds from this router to
	// its PoP's core. Zero for core routers; small for intra-PoP routers;
	// for backbone routers it is the latency to the owning PoP.
	CoreLatMs float64
}

// PoP is an ISP point of presence: the star hub of the paper's Figure 1.
// Its core routers form the cluster-hub — a set of close-by routers with
// negligible latency between one another.
type PoP struct {
	ID       PoPID
	AS       ASID
	City     CityID
	Core     []RouterID
	Backbone []RouterID // this PoP's long-haul routers
	ENs      []ENID
}

// EndNetwork is the paper's "end-network": a LAN, extended LAN, or campus /
// corporate network in one location — or a degenerate single-host "network"
// for a home broadband user (IsHome).
type EndNetwork struct {
	ID     ENID
	PoP    PoPID
	Prefix IPBlock
	Domain string // DNS domain of the organisation; "" for home users
	IsHome bool
	// Chain is the access path from the PoP core down to this end-network:
	// Chain[0] attaches to the core, Chain[len-1] is the end-network's edge
	// router (the closest upstream router its hosts see). Aggregation
	// routers may be shared with other end-networks — that is the
	// "funnelling in" of Figure 1; the deepest shared router is then a
	// closer common router than the PoP.
	Chain []RouterID
	// ChainLatMs[i] is the cumulative one-way latency in milliseconds from
	// the PoP core to Chain[i]. len(ChainLatMs) == len(Chain).
	ChainLatMs []float64
	// HubLatMs is the one-way latency from the end-network edge to the PoP
	// core (== last element of ChainLatMs, or the direct link latency when
	// Chain is empty).
	HubLatMs float64
	// VLANs is the number of VLAN segments the network is split into.
	// Multicast does not cross VLAN boundaries (the failure mode of the
	// paper's first mitigation).
	VLANs int
	Hosts []HostID
}

// EdgeRouter returns the closest upstream router of hosts in this network.
func (en *EndNetwork) EdgeRouter() RouterID {
	if len(en.Chain) == 0 {
		return NoRouter
	}
	return en.Chain[len(en.Chain)-1]
}

// DNSServer carries the DNS role of a host.
type DNSServer struct {
	Recursive bool
	// Domains this server is authoritative for. King requires that the
	// second server of a pair be authoritative for a name the first is not.
	Domains []string
}

// Host is an end-host.
type Host struct {
	ID HostID
	EN ENID
	IP IPv4
	// VLAN is the host's VLAN index within its end-network.
	VLAN int
	// LANLatMs is the one-way latency from the host to its end-network edge
	// (tens of microseconds on a LAN; the full DSL/cable access latency for
	// home hosts, which is what dominates the hub-to-peer latencies of the
	// paper's Figure 7).
	LANLatMs float64
	// RespondsPing / RespondsTCP model the measurement attrition of Section
	// 3.2: only 5,904 of 156,658 Azureus addresses answered.
	RespondsPing bool
	RespondsTCP  bool
	// Multihomed hosts have a second upstream and show different upstream
	// routers from different vantage points, so the pipeline drops them.
	Multihomed bool
	// AltUpstream is the edge router seen via the second upstream when
	// Multihomed (NoRouter otherwise).
	AltUpstream RouterID
	// DNS is non-nil when the host is a DNS server.
	DNS *DNSServer
}

// Topology is the generated Internet. All slices are indexed by the
// corresponding ID type.
type Topology struct {
	Cities  []City
	ASes    []AS
	Routers []Router
	PoPs    []PoP
	ENs     []EndNetwork
	Hosts   []Host

	// byIP maps host IP -> host ID.
	byIP map[IPv4]HostID
	// hubRTT caches PoP-pair one-way latencies.
	hubLat *hubLatencies
	// shortcuts models alternate paths (see routing.go).
	shortcuts shortcutModel
	// flat is the per-host structure-of-arrays latency table the pricing
	// hot path reads instead of chasing Host/EndNetwork pointers (see
	// hotpath.go).
	flat hostFlat
	// floors holds the Generate-time latency lower bounds the sharded
	// kernel derives its lookahead window from (see floor.go).
	floors latencyFloors
	cfg    Config
}

// Config returns the generation parameters the topology was built with.
func (t *Topology) Config() Config { return t.cfg }

// Host returns the host with the given ID.
func (t *Topology) Host(id HostID) *Host { return &t.Hosts[id] }

// Router returns the router with the given ID.
func (t *Topology) Router(id RouterID) *Router { return &t.Routers[id] }

// EN returns the end-network with the given ID.
func (t *Topology) EN(id ENID) *EndNetwork { return &t.ENs[id] }

// PoP returns the PoP with the given ID.
func (t *Topology) PoP(id PoPID) *PoP { return &t.PoPs[id] }

// City returns the city with the given ID.
func (t *Topology) City(id CityID) *City { return &t.Cities[id] }

// ASOf returns the AS with the given ID.
func (t *Topology) ASOf(id ASID) *AS { return &t.ASes[id] }

// HostByIP looks a host up by address.
func (t *Topology) HostByIP(ip IPv4) (HostID, bool) {
	id, ok := t.byIP[ip]
	return id, ok
}

// HostEN returns the end-network of a host.
func (t *Topology) HostEN(id HostID) *EndNetwork { return &t.ENs[t.Hosts[id].EN] }

// SameEN reports whether two hosts share an end-network. This is the ground
// truth the paper itself could only observe in simulation: "exact closest
// peer" means a peer in the target's end-network.
func (t *Topology) SameEN(a, b HostID) bool { return t.Hosts[a].EN == t.Hosts[b].EN }

// SamePoPCluster reports whether two hosts attach through the same PoP —
// whether they are in the same cluster in the paper's sense.
func (t *Topology) SamePoPCluster(a, b HostID) bool {
	return t.HostEN(a).PoP == t.HostEN(b).PoP
}

// NumHosts returns the number of hosts.
func (t *Topology) NumHosts() int { return len(t.Hosts) }

// Duration converts a latency in float64 milliseconds to a time.Duration.
func Duration(ms float64) time.Duration {
	return time.Duration(ms * float64(time.Millisecond))
}

// Ms converts a time.Duration to float64 milliseconds.
func Ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
