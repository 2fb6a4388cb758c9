package netmodel

import (
	"fmt"
	"math"

	"nearestpeer/internal/rng"
)

// Config holds every structural parameter of the generated Internet. The
// defaults in DefaultConfig produce a small topology suitable for unit tests
// and examples; MeasurementConfig scales to the population sizes of the
// paper's Section 3 study.
type Config struct {
	// Geography.
	NCities int
	NASes   int
	// ASCityCoverage is the fraction of cities in which a given AS deploys
	// a PoP.
	ASCityCoverage float64

	// End-networks (campus / corporate networks) per PoP.
	MinENsPerPoP  int
	MaxENsPerPoP  int
	MaxHostsPerEN int
	// Dedicated access routers per end-network (campus border etc.).
	MinDedicatedRouters int
	MaxDedicatedRouters int

	// Home (broadband) hosts.
	MeanHomesPerPoP float64
	HomesCapMult    float64 // cap per-PoP homes at HomesCapMult×mean
	BRASCapacity    int     // homes per BRAS aggregation router
	DSLSigma        float64 // log-normal sigma of a home host's access latency

	// Measurement-visibility model.
	AnonymousRouterProb float64
	MultihomedProbHome  float64
	MultihomedProbCorp  float64
	PingRespProbHome    float64
	PingRespProbCorp    float64
	TCPRespProbHome     float64
	TCPRespProbCorp     float64
	// DNSServerENProb is the fraction of corporate ENs hosting DNS servers.
	DNSServerENProb float64
}

// The generator's fixed parameters: every topology draws them alike.
const (
	// planeWidth and planeHeight bound the synthetic plane cities sit on.
	planeWidth  float64 = 4200
	planeHeight float64 = 2600

	// minHostsPerEN is the smallest corporate end-network.
	minHostsPerEN int = 2
	// maxVLANs bounds an end-network's VLAN count.
	maxVLANs int = 4
	// directAttachProb is the probability an end-network attaches straight
	// to the PoP core rather than through a shared aggregation router.
	directAttachProb float64 = 0.3

	// homesPareto is the Pareto shape of per-PoP home counts.
	homesPareto float64 = 1.3
	// A home host's one-way access latency is log-normal around
	// dslMedianMs, clamped to [dslMinMs, dslMaxMs].
	dslMedianMs float64 = 9
	dslMinMs    float64 = 2
	dslMaxMs    float64 = 45

	// Cluster-hub latencies: per-PoP mean one-way latency between its
	// end-networks' edges and the core, drawn in [clusterHubLatMinMs,
	// clusterHubLatMaxMs], and the per-EN spread around it. Tight spreads
	// are exactly the paper's clustering condition.
	clusterHubLatMinMs float64 = 1.5
	clusterHubLatMaxMs float64 = 10
	hubLatSpread       float64 = 0.25
	// Corporate host LAN latencies (one-way ms).
	lanLatMinMs float64 = 0.02
	lanLatMaxMs float64 = 0.1

	// misconfiguredNameProb is the probability a router's name claims the
	// wrong city.
	misconfiguredNameProb float64 = 0.08
	// dnsGeoSplitProb is P(second server of a domain lives elsewhere).
	dnsGeoSplitProb float64 = 0.03

	// Address plan: P(an EN /24 is allocated out of sequence), and P(a
	// home address block is).
	scatterCorp float64 = 0.35
	scatterHome float64 = 0.12
)

// DefaultConfig returns a small topology configuration: a few thousand
// hosts, fast enough for unit tests and examples.
func DefaultConfig() Config {
	return Config{
		NCities: 12, NASes: 5, ASCityCoverage: 0.45,

		MinENsPerPoP: 4, MaxENsPerPoP: 14, MaxHostsPerEN: 12,
		MinDedicatedRouters: 1, MaxDedicatedRouters: 3,

		MeanHomesPerPoP: 60, HomesCapMult: 12, BRASCapacity: 64, DSLSigma: 0.55,

		AnonymousRouterProb: 0.08, DNSServerENProb: 0.5,
		MultihomedProbHome: 0.02, MultihomedProbCorp: 0.12,
		PingRespProbHome: 0.3, PingRespProbCorp: 0.55,
		TCPRespProbHome: 0.25, TCPRespProbCorp: 0.4,
	}
}

// MeasurementConfig returns the large-scale configuration used to reproduce
// the Section 3 measurement study: hundreds of PoPs, hundreds of thousands
// of hosts, tens of thousands of DNS servers.
func MeasurementConfig() Config {
	c := DefaultConfig()
	c.NCities = 40
	c.NASes = 14
	c.ASCityCoverage = 0.5
	c.MinENsPerPoP, c.MaxENsPerPoP = 10, 80
	c.MaxHostsPerEN = 24
	// Real campus access paths run deeper than the toy default.
	c.MinDedicatedRouters, c.MaxDedicatedRouters = 2, 5
	c.MeanHomesPerPoP = 700
	c.HomesCapMult = 24
	c.BRASCapacity = 20000
	c.DNSServerENProb = 0.8
	c.DSLSigma = 0.45
	// Azureus-style attrition, calibrated to the paper's funnel: 14.6% of
	// the 156,658 addresses yield a latency (22,796 for Section 5), and
	// only ~26% of those show one stable upstream router from all seven
	// vantage points (5,904 for Section 3.2) — per-flow load balancing and
	// multihoming dominate that second cut.
	c.PingRespProbHome = 0.05
	c.TCPRespProbHome = 0.08
	c.PingRespProbCorp = 0.10
	c.TCPRespProbCorp = 0.18
	c.MultihomedProbHome = 0.74
	c.MultihomedProbCorp = 0.70
	return c
}

// Generate builds a Topology from cfg, deterministically from seed.
func Generate(cfg Config, seed int64) *Topology {
	src := rng.New(seed)
	t := &Topology{cfg: cfg, byIP: make(map[IPv4]HostID)}

	genCities(t, src.Split("cities"))
	genASes(t, src.Split("ases"))
	genPoPs(t, src.Split("pops"))
	alloc := newAddressPlan(t)
	genAccess(t, src.Split("access"), alloc)
	genDNS(t, src.Split("dns"))

	t.hubLat = buildHubLatencies(t, seed)
	buildHostFlat(t)
	t.shortcuts = shortcutModel{seed: seed ^ 0x51C0_1D5E}
	computeLatencyFloors(t)
	return t
}

func genCities(t *Topology, src *rng.Source) {
	n := t.cfg.NCities
	if n > len(cityNames) {
		n = len(cityNames)
	}
	perm := src.Perm(len(cityNames))[:n]
	for i, pi := range perm {
		t.Cities = append(t.Cities, City{
			ID:   CityID(i),
			Name: cityNames[pi][0],
			Code: cityNames[pi][1],
			X:    src.Uniform(0, planeWidth),
			Y:    src.Uniform(0, planeHeight),
		})
	}
}

func genASes(t *Topology, src *rng.Source) {
	for i := 0; i < t.cfg.NASes; i++ {
		name := ispNames[i%len(ispNames)]
		if i >= len(ispNames) {
			name = fmt.Sprintf("%s%d", name, i/len(ispNames))
		}
		// Each AS owns a /12; low half is corporate space, high half is
		// residential space. Blocks from neighbouring ASes share shorter
		// prefixes, which is what gives the IP-prefix heuristic its
		// false positives at small prefix lengths (Figure 11).
		t.ASes = append(t.ASes, AS{
			ID:     ASID(i),
			Number: 3300 + 7*i,
			Name:   name,
			Blocks: []IPBlock{{Base: IPv4(uint32(16+i) << 20), Bits: 12}},
		})
	}
}

func genPoPs(t *Topology, src *rng.Source) {
	for asIdx := range t.ASes {
		cover := src.SplitN("coverage", asIdx)
		nCover := int(math.Round(t.cfg.ASCityCoverage * float64(len(t.Cities))))
		if nCover < 1 {
			nCover = 1
		}
		perm := cover.Perm(len(t.Cities))[:nCover]
		for _, cityIdx := range perm {
			pid := PoPID(len(t.PoPs))
			pop := PoP{ID: pid, AS: ASID(asIdx), City: CityID(cityIdx)}
			nCore := 1 + cover.Intn(2)
			for k := 0; k < nCore; k++ {
				pop.Core = append(pop.Core, t.addRouter(cover, ASID(asIdx), CityID(cityIdx), pid, KindCore, 0))
			}
			nBB := 1 + cover.Intn(2)
			for k := 0; k < nBB; k++ {
				pop.Backbone = append(pop.Backbone, t.addRouter(cover, ASID(asIdx), CityID(cityIdx), pid, KindBackbone, 0.1))
			}
			t.PoPs = append(t.PoPs, pop)
		}
	}
}

// addRouter creates a router, drawing anonymity and name misconfiguration.
func (t *Topology) addRouter(src *rng.Source, as ASID, city CityID, pop PoPID, kind RouterKind, coreLatMs float64) RouterID {
	id := RouterID(len(t.Routers))
	nameCity := city
	if src.Bool(misconfiguredNameProb) && len(t.Cities) > 1 {
		for {
			nameCity = CityID(src.Intn(len(t.Cities)))
			if nameCity != city {
				break
			}
		}
	}
	t.Routers = append(t.Routers, Router{
		ID:        id,
		AS:        as,
		City:      city,
		PoP:       pop,
		Kind:      kind,
		Name:      routerName(kind, int(id), t.Cities[nameCity].Code, t.ASes[as].Name),
		NameCity:  nameCity,
		Anonymous: src.Bool(t.cfg.AnonymousRouterProb),
		CoreLatMs: coreLatMs,
	})
	return id
}

// addressPlan allocates /24 blocks and host addresses out of each AS's
// space, with a sequential cursor plus configured scatter. Sequential
// allocation is what makes short prefixes geographically meaningful.
type addressPlan struct {
	corpNext []uint64 // next sequential /24 index per AS (corporate half)
	homeNext []uint64 // next sequential /24 index per AS (residential half)
}

func newAddressPlan(t *Topology) *addressPlan {
	return &addressPlan{
		corpNext: make([]uint64, len(t.ASes)),
		homeNext: make([]uint64, len(t.ASes)),
	}
}

// corpBlocks and homeBlocks: each AS /12 is split at the /13 boundary.
func corpHalf(as *AS) IPBlock { return as.Blocks[0].SubBlock(13, 0) }
func homeHalf(as *AS) IPBlock { return as.Blocks[0].SubBlock(13, 1) }

// next24 returns the next /24 for the AS, sequentially or scattered.
func (p *addressPlan) next24(src *rng.Source, as *AS, home bool, scatter float64) IPBlock {
	half := corpHalf(as)
	next := &p.corpNext[as.ID]
	if home {
		half = homeHalf(as)
		next = &p.homeNext[as.ID]
	}
	total := uint64(1) << uint(24-half.Bits)
	if src.Bool(scatter) {
		// A scattered block: anywhere in the half. Collisions with
		// sequential blocks are acceptable noise (real allocations
		// overlap administratively too; hosts still get unique IPs from
		// the global uniqueness check in addHost).
		return half.SubBlock(24, uint64(src.Int63n(int64(total))))
	}
	idx := *next % total
	*next++
	return half.SubBlock(24, idx)
}

// addHost registers a host, assigning a unique IP within the preferred /24
// (falling back to neighbouring blocks on exhaustion).
func (t *Topology) addHost(src *rng.Source, en ENID, block IPBlock, lanLatMs float64, vlan int, home bool) HostID {
	id := HostID(len(t.Hosts))
	var ip IPv4
	for attempt := 0; ; attempt++ {
		candidate := block.Nth(uint64(1 + src.Intn(250)))
		if attempt > 40 {
			// Exhausted: walk forward through address space.
			candidate = block.Base + IPv4(attempt*251%65000)
		}
		if _, taken := t.byIP[candidate]; !taken {
			ip = candidate
			break
		}
	}
	cfg := &t.cfg
	pingP, tcpP, mhP := cfg.PingRespProbCorp, cfg.TCPRespProbCorp, cfg.MultihomedProbCorp
	if home {
		pingP, tcpP, mhP = cfg.PingRespProbHome, cfg.TCPRespProbHome, cfg.MultihomedProbHome
	}
	h := Host{
		ID: id, EN: en, IP: ip, VLAN: vlan, LANLatMs: lanLatMs,
		RespondsPing: src.Bool(pingP),
		RespondsTCP:  src.Bool(tcpP),
		Multihomed:   src.Bool(mhP),
		AltUpstream:  NoRouter,
	}
	t.Hosts = append(t.Hosts, h)
	t.byIP[ip] = id
	t.ENs[en].Hosts = append(t.ENs[en].Hosts, id)
	return id
}

// genAccess builds, for every PoP, its aggregation layer, corporate
// end-networks and home subscriber population.
func genAccess(t *Topology, src *rng.Source, alloc *addressPlan) {
	for pi := range t.PoPs {
		pop := &t.PoPs[pi]
		psrc := src.SplitN("pop", pi)
		as := &t.ASes[pop.AS]

		// Per-PoP mean hub latency: the paper's clustering condition is
		// that the PoP's end-networks share approximately this latency.
		clusterMean := psrc.Uniform(clusterHubLatMinMs, clusterHubLatMaxMs)

		// Shared aggregation routers (the funnel of Figure 1).
		nENs := t.cfg.MinENsPerPoP
		if t.cfg.MaxENsPerPoP > t.cfg.MinENsPerPoP {
			nENs += psrc.Intn(t.cfg.MaxENsPerPoP - t.cfg.MinENsPerPoP + 1)
		}
		nAgg := nENs/4 + 1
		aggs := make([]RouterID, 0, nAgg)
		aggLats := make([]float64, 0, nAgg)
		for k := 0; k < nAgg; k++ {
			// The aggregation router sits at a fixed position between the
			// core and the end-networks it serves.
			lat := clusterMean * psrc.Uniform(0.2, 0.5)
			aggs = append(aggs, t.addRouter(psrc, pop.AS, pop.City, pop.ID, KindAgg, lat))
			aggLats = append(aggLats, lat)
		}

		// Corporate end-networks.
		for e := 0; e < nENs; e++ {
			esrc := psrc.SplitN("en", e)
			enID := ENID(len(t.ENs))
			hubLat := clusterMean * esrc.Uniform(1-hubLatSpread, 1+hubLatSpread)

			var chain []RouterID
			var chainLat []float64
			cum := 0.0
			if !esrc.Bool(directAttachProb) {
				// Attach through a shared aggregation router, at the
				// router's own fixed position.
				k := esrc.Intn(len(aggs))
				cum = aggLats[k]
				if cum > hubLat*0.6 {
					cum = hubLat * 0.6
				}
				chain = append(chain, aggs[k])
				chainLat = append(chainLat, cum)
			}
			nDed := t.cfg.MinDedicatedRouters
			if t.cfg.MaxDedicatedRouters > nDed {
				nDed += esrc.Intn(t.cfg.MaxDedicatedRouters - t.cfg.MinDedicatedRouters + 1)
			}
			for d := 0; d < nDed; d++ {
				remaining := hubLat - cum
				cum += remaining * float64(d+1) / float64(nDed+1) * esrc.Uniform(0.7, 1.3)
				if cum > hubLat || d == nDed-1 {
					cum = hubLat
				}
				// CoreLatMs must equal the chain's cumulative latency so
				// pinging the router agrees with the traceroute hop.
				r := t.addRouter(esrc, pop.AS, pop.City, pop.ID, KindAgg, cum)
				t.Routers[r].Customer = true
				chain = append(chain, r)
				chainLat = append(chainLat, cum)
			}

			en := EndNetwork{
				ID: enID, PoP: pop.ID,
				Prefix: alloc.next24(esrc, as, false, scatterCorp),
				Domain: domainName(int(enID)),
				Chain:  chain, ChainLatMs: chainLat, HubLatMs: hubLat,
				VLANs: 1 + esrc.Intn(maxVLANs),
			}
			t.ENs = append(t.ENs, en)
			pop.ENs = append(pop.ENs, enID)

			nHosts := minHostsPerEN
			if t.cfg.MaxHostsPerEN > nHosts {
				nHosts += esrc.Intn(t.cfg.MaxHostsPerEN - minHostsPerEN + 1)
			}
			for hI := 0; hI < nHosts; hI++ {
				vlan := esrc.Intn(t.ENs[enID].VLANs)
				hid := t.addHost(esrc, enID, t.ENs[enID].Prefix,
					esrc.Uniform(lanLatMinMs, lanLatMaxMs), vlan, false)
				if t.Hosts[hid].Multihomed {
					t.Hosts[hid].AltUpstream = aggs[esrc.Intn(len(aggs))]
				}
			}
		}

		// Home subscribers, behind BRAS aggregation routers.
		nHomes := int(psrc.Pareto(t.cfg.MeanHomesPerPoP*0.45, homesPareto))
		maxHomes := int(t.cfg.MeanHomesPerPoP * t.cfg.HomesCapMult)
		if nHomes > maxHomes {
			nHomes = maxHomes
		}
		nBRAS := nHomes/t.cfg.BRASCapacity + 1
		brasRouters := make([]RouterID, 0, nBRAS)
		brasLats := make([]float64, 0, nBRAS)
		for k := 0; k < nBRAS; k++ {
			lat := psrc.Uniform(0.2, 0.8)
			brasRouters = append(brasRouters, t.addRouter(psrc, pop.AS, pop.City, pop.ID, KindAgg, lat))
			brasLats = append(brasLats, lat)
		}
		var homeBlock IPBlock
		homeInBlock := 0
		for hI := 0; hI < nHomes; hI++ {
			hsrc := psrc.SplitN("home", hI)
			brasIdx := hI * nBRAS / nHomes
			if homeInBlock == 0 || homeInBlock >= 220 {
				homeBlock = alloc.next24(hsrc, as, true, scatterHome)
				homeInBlock = 0
			}
			homeInBlock++

			enID := ENID(len(t.ENs))
			dsl := math.Exp(math.Log(dslMedianMs) + t.cfg.DSLSigma*hsrc.NormFloat64())
			if dsl < dslMinMs {
				dsl = dslMinMs
			}
			if dsl > dslMaxMs {
				dsl = dslMaxMs
			}
			en := EndNetwork{
				ID: enID, PoP: pop.ID,
				Prefix: homeBlock,
				IsHome: true,
				Chain:  []RouterID{brasRouters[brasIdx]},
				// The home "network" edge is the BRAS itself.
				ChainLatMs: []float64{brasLats[brasIdx]},
				HubLatMs:   brasLats[brasIdx],
				VLANs:      1,
			}
			t.ENs = append(t.ENs, en)
			pop.ENs = append(pop.ENs, enID)
			hid := t.addHost(hsrc, enID, homeBlock, dsl, 0, true)
			if t.Hosts[hid].Multihomed {
				// A second path: another BRAS where one exists, else the
				// PoP core (per-flow load balancing hides the BRAS from
				// some vantage points).
				alt := pop.Core[0]
				if len(brasRouters) > 1 {
					alt = brasRouters[(brasIdx+1)%len(brasRouters)]
				}
				t.Hosts[hid].AltUpstream = alt
			}
		}
	}
}

// genDNS deploys DNS servers into a fraction of corporate end-networks:
// each chosen network gets one or two servers, recursive and authoritative
// for the network's domain. With small probability the second server of a
// domain is physically hosted in some other end-network — the geographic
// domain splits the paper noticed in its same-domain pair analysis.
func genDNS(t *Topology, src *rng.Source) {
	var corpENs []ENID
	for i := range t.ENs {
		if !t.ENs[i].IsHome {
			corpENs = append(corpENs, ENID(i))
		}
	}
	for _, enID := range corpENs {
		esrc := src.SplitN("dnsen", int(enID))
		if !esrc.Bool(t.cfg.DNSServerENProb) {
			continue
		}
		en := &t.ENs[enID]
		domain := en.Domain
		nServers := 1 + esrc.Intn(3)
		for s := 0; s < nServers; s++ {
			hostEN := enID
			if s > 0 && esrc.Bool(dnsGeoSplitProb) && len(corpENs) > 1 {
				hostEN = corpENs[esrc.Intn(len(corpENs))]
			}
			hid := t.addHost(esrc, hostEN, t.ENs[hostEN].Prefix,
				esrc.Uniform(lanLatMinMs, lanLatMaxMs),
				esrc.Intn(t.ENs[hostEN].VLANs), false)
			h := &t.Hosts[hid]
			h.DNS = &DNSServer{Recursive: true, Domains: []string{domain}}
			// Name servers answer measurement probes.
			h.RespondsPing = true
			h.Multihomed = false
		}
	}
}

// DNSServers returns the IDs of all hosts that are DNS servers.
func (t *Topology) DNSServers() []HostID {
	var out []HostID
	for i := range t.Hosts {
		if t.Hosts[i].DNS != nil {
			out = append(out, HostID(i))
		}
	}
	return out
}
