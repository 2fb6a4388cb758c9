// Command npsim runs parameterised nearest-peer simulations on the Section
// 4 clustered latency matrices: pick an algorithm, cluster geometry and
// query count, and get exact-closest / correct-cluster rates with probe
// costs — the interactive companion to Figures 8 and 9. With -runtime the
// Meridian search runs as a message protocol on internal/p2p instead of
// as function calls, and -loss / -churn put the wire in the way. With
// -scale N the s1 scale study runs all three scale algorithms at an
// N-host population, fanned out over -workers engine workers. With
// -trace FILE a runtime run attaches the flight recorder and dumps every
// lookup hop (message type, RTT, outcome) as JSON; -cpuprofile and
// -memprofile write pprof profiles of the run.
package main

import (
	"flag"
	"fmt"
	"os"
	goruntime "runtime"
	"runtime/pprof"
	"time"

	"nearestpeer/internal/engine"
	"nearestpeer/internal/experiments"
	"nearestpeer/internal/faults"
	"nearestpeer/internal/latency"
	"nearestpeer/internal/meridian"
	"nearestpeer/internal/obs"
	"nearestpeer/internal/overlay"
)

func main() {
	algo := flag.String("algo", "meridian",
		"algorithm: meridian | kargerruhl | tapestry | tiers | vivaldi | pic | guyton | beaconing | azureus | rendezvous; with -runtime any registry scheme: those plus expanding | chord | ucl | ipprefix")
	ens := flag.Int("ens", 125, "end-networks per cluster")
	peers := flag.Int("peers", 2500, "total peer population")
	delta := flag.Float64("delta", 0.2, "intra-cluster latency variation δ")
	queries := flag.Int("queries", 2000, "number of closest-peer queries")
	beta := flag.Float64("beta", 0.5, "Meridian β acceptance threshold")
	ringSize := flag.Int("ring", 16, "Meridian nodes per ring")
	noise := flag.Float64("noise", 0, "probe jitter fraction (0 = noiseless, as in the paper's simulations)")
	seed := flag.Int64("seed", 1, "simulation seed")
	runtime := flag.Bool("runtime", false, "run over the internal/p2p message runtime (any registry scheme; see -algo)")
	loss := flag.Float64("loss", 0, "one-way packet loss probability (requires -runtime)")
	churn := flag.Bool("churn", false, "drive membership churn during queries (requires -runtime)")
	scaleN := flag.Int("scale", 0, "run the s1 scale study at this host population (all three algorithms) and exit")
	workers := flag.Int("workers", 0, "engine worker-pool width (0 = GOMAXPROCS); results are byte-identical at any width")
	shards := flag.Int("shards", 1, "intra-trial kernel shards for the scale-study wire cells; results are byte-identical at any count")
	tracePath := flag.String("trace", "", "write a flight-recorder JSON dump of the run's lookup hops to this file (requires -runtime)")
	faultSpec := flag.String("faults", "", `deterministic fault plan for the runtime wire, e.g. "seed=7;burst:at=30s,for=1m,prob=0.4" (requires -runtime; see internal/faults)`)
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile (taken at exit) to this file")
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "npsim:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "npsim:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "npsim:", err)
				return
			}
			defer f.Close()
			goruntime.GC() // settle the heap so the profile shows retention, not garbage
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "npsim:", err)
			}
		}()
	}

	engine.SetWorkers(*workers)
	if *shards < 1 || *shards > maxShards {
		fmt.Fprintf(os.Stderr, "-shards %d outside [1, %d]\n", *shards, maxShards)
		os.Exit(2)
	}
	engine.SetShards(*shards)
	if *scaleN < 0 {
		fmt.Fprintf(os.Stderr, "-scale %d must not be negative (0 runs no scale study)\n", *scaleN)
		os.Exit(2)
	}
	if *noise < 0 {
		fmt.Fprintf(os.Stderr, "-noise %v must not be negative\n", *noise)
		os.Exit(2)
	}
	if *tracePath != "" && !*runtime {
		fmt.Fprintln(os.Stderr, "-trace requires -runtime (the flight recorder hooks the message runtime's lookup paths)")
		os.Exit(2)
	}
	var plan *faults.Plan
	if *faultSpec != "" {
		if !*runtime {
			fmt.Fprintln(os.Stderr, "-faults requires -runtime (the fault plane hooks the message transports)")
			os.Exit(2)
		}
		var err error
		if plan, err = faults.Parse(*faultSpec); err != nil {
			fmt.Fprintln(os.Stderr, "npsim:", err)
			os.Exit(2)
		}
	}
	var rec *obs.Recorder
	if *tracePath != "" {
		rec = obs.NewRecorder(traceCapacity)
	}
	if *scaleN > 0 {
		algoSet := false
		flag.Visit(func(f *flag.Flag) { algoSet = algoSet || f.Name == "algo" })
		if *runtime || *loss != 0 || *churn || algoSet {
			fmt.Fprintln(os.Stderr, "-scale runs its own fixed algorithm set; -algo/-runtime/-loss/-churn do not apply")
			os.Exit(2)
		}
		runScaleStudy(*scaleN, *queries, *seed)
		return
	}

	// -beta and -ring are npsim's own Meridian knobs, checked once for the
	// static and the wire Meridian alike.
	mc := meridian.DefaultConfig()
	mc.Beta, mc.RingSize = *beta, *ringSize
	if err := mc.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "npsim:", err)
		os.Exit(2)
	}

	if *runtime {
		if !(*loss >= 0 && *loss <= 1) { // NaN too
			fmt.Fprintf(os.Stderr, "-loss %v outside [0,1]\n", *loss)
			os.Exit(2)
		}
		if *noise > 0 {
			fmt.Fprintln(os.Stderr, "-noise applies to the static probe model; the runtime measures true wire RTTs")
			os.Exit(2)
		}
		switch *algo {
		case "meridian", "chord":
			// Both run on the clustered matrix built below.
		default:
			// Every other registry scheme runs on the measurement
			// topology: dispatch before the (large, unused here)
			// clustered matrix is built. Unknown names get the
			// registry's roster error.
			runWireMitigation(*algo, *peers, *queries, *loss, *churn, *seed, rec, plan)
			writeTrace(rec, *tracePath)
			return
		}
	}

	cfg := latency.DefaultClusteredConfig()
	cfg.ENsPerCluster = *ens
	cfg.TotalPeers = *peers
	cfg.Delta = *delta
	if err := cfg.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "npsim:", err)
		os.Exit(2)
	}
	m, gt := latency.NewClustered(cfg, *seed)

	if *runtime {
		if *algo == "chord" {
			runWireChord(m, *peers, *queries, *loss, *churn, *seed, rec, plan)
			writeTrace(rec, *tracePath)
			return
		}
		members, targets := splitTargets(m.N(), *seed+1)
		fmt.Printf("algo=meridian/p2p peers=%d ENs/cluster=%d (clusters=%d) δ=%.2f queries=%d β=%.2f ring=%d loss=%.0f%% churn=%v\n",
			m.N(), *ens, gt.NumClusters, *delta, *queries, *beta, *ringSize, *loss*100, *churn)
		row := experiments.RunMessageMeridian(m, gt, members, targets, experiments.RuntimeOpts{
			Loss: *loss, Beta: *beta, RingSize: *ringSize,
			Churn: *churn, Queries: *queries, Seed: *seed,
			Recorder: rec, Faults: plan,
		})
		fmt.Printf("\nP(exact closest peer)   = %.3f\n", row.PExact)
		fmt.Printf("P(correct cluster)      = %.3f\n", row.PCluster)
		fmt.Printf("completed before deadline = %.2f\n", row.Found)
		fmt.Printf("mean probes per query   = %.1f\n", row.MeanProbes)
		fmt.Printf("mean messages per query = %.1f (maintenance included)\n", row.MeanMsgs)
		fmt.Printf("mean hops per query     = %.1f\n", row.MeanHops)
		fmt.Printf("mean virtual ms/query   = %.0f\n", row.MeanMs)
		fmt.Printf("RPC timeouts            = %d\n", row.Timeouts)
		fmt.Printf("ended by op deadline    = %d of %d queries\n", row.Backstopped, *queries)
		if *churn {
			fmt.Printf("churn                   = %d leaves, %d joins\n", row.Leaves, row.Joins)
		}
		writeTrace(rec, *tracePath)
		return
	}
	if *loss > 0 || *churn {
		fmt.Fprintln(os.Stderr, "-loss and -churn require -runtime")
		os.Exit(2)
	}
	net := overlay.NewNetwork(m)
	if *noise > 0 {
		net.SetNoise(*noise, 0.3, *seed+11)
	}
	members, targets := splitTargets(m.N(), *seed+1)

	var finder overlay.Finder
	if *algo == "meridian" {
		// -beta and -ring are npsim's own knobs, so its Meridian is built
		// here; every other algorithm comes from the scheme registry.
		mc.CandidatesPerNode = len(members)
		finder = meridian.New(net, members, mc, *seed+2)
	} else {
		var err error
		finder, err = experiments.StaticFinder(*algo, net, members, *seed+1, func(m int) int { return gt.ENOf[m] })
		if err != nil {
			fmt.Fprintln(os.Stderr, "npsim:", err)
			os.Exit(2)
		}
	}

	fmt.Printf("algo=%s peers=%d ENs/cluster=%d (clusters=%d) δ=%.2f queries=%d noise=%.0f%%\n",
		*algo, m.N(), *ens, gt.NumClusters, *delta, *queries, *noise*100)
	fmt.Printf("overlay build: %d maintenance probes\n", net.MaintProbes())

	sc, err := experiments.RunStaticTargets(finder, m, gt, members, targets, *queries, *seed+4)
	if err != nil {
		fmt.Fprintln(os.Stderr, "npsim:", err)
		os.Exit(2)
	}
	fmt.Printf("\nP(exact closest peer)   = %.3f\n", sc.PExact)
	fmt.Printf("P(correct cluster)      = %.3f\n", sc.PCluster)
	fmt.Printf("mean probes per query   = %.1f\n", sc.MeanProbes)
	fmt.Printf("mean hops per query     = %.1f\n", sc.MeanHops)
}

// maxShards caps -shards: the sharded kernel and the runtime each keep a
// mailbox per (source, destination) shard pair, and shards beyond the host
// count's PoPs or the machine's cores buy nothing.
const maxShards = 256

// splitTargets holds the query targets out of the population, as the
// paper's simulations do.
func splitTargets(n int, seed int64) (members, targets []int) {
	const nTargets = 100
	if n <= nTargets {
		fmt.Fprintf(os.Stderr, "npsim: a population of %d peers cannot hold out %d query targets (raise -peers or -ens)\n", n, nTargets)
		os.Exit(2)
	}
	return overlay.Split(n, nTargets, seed)
}

// runScaleStudy runs the s1 scale study at one population: the static
// Meridian walk, the expanding-ring search and the wire Chord DHT over one
// generated topology, fanned out across the engine worker pool.
func runScaleStudy(hosts, queries int, seed int64) {
	const maxQueries = 500
	if queries < 1 {
		fmt.Fprintf(os.Stderr, "npsim: -scale needs at least 1 query per algorithm, got %d\n", queries)
		os.Exit(2)
	}
	if queries > maxQueries {
		fmt.Fprintf(os.Stderr, "note: -queries capped at %d for -scale runs (asked for %d)\n", maxQueries, queries)
		queries = maxQueries
	}
	fmt.Printf("s1 scale study: %d hosts (nominal), %d queries/algorithm, %d workers\n\n",
		hosts, queries, engine.Workers(0))
	r := experiments.ScaleStudyAt([]int{hosts}, queries, seed)
	fmt.Println(r.Render())
	fmt.Println(r.RenderTiming())
}

// runWireMitigation resolves nearest-peer queries through any scheme in
// the experiments registry — the Section 5 hint schemes (UCL, IP-prefix,
// over the message-level Chord DHT), the Vivaldi coordinate gossip, and
// the wired algorithm zoo (guyton, beaconing, tiers, pic, tapestry,
// azureus, kargerruhl, rendezvous, expanding) — on the measurement
// topology (the hint schemes need routers and IP prefixes, which the
// synthetic clustered matrix does not have). The publish column reports
// each scheme's bring-up bill; lookups and hops count its own RPCs.
// traceCapacity bounds the -trace flight-recorder ring; when a run records
// more hops than this, the oldest are overwritten and reported as dropped.
const traceCapacity = 1 << 16

// writeTrace dumps the flight recorder as JSON. No-op without -trace.
func writeTrace(rec *obs.Recorder, path string) {
	if rec == nil || path == "" {
		return
	}
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "npsim:", err)
		os.Exit(1)
	}
	if err := rec.WriteJSON(f); err != nil {
		f.Close()
		fmt.Fprintln(os.Stderr, "npsim:", err)
		os.Exit(1)
	}
	if err := f.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "npsim:", err)
		os.Exit(1)
	}
	fmt.Printf("\nflight recorder         = %d hop records kept (%d recorded, %d dropped) -> %s\n",
		rec.Len(), rec.Recorded(), rec.Dropped(), path)
}

func runWireMitigation(scheme string, peers, queries int, loss float64, churn bool, seed int64, rec *obs.Recorder, plan *faults.Plan) {
	const maxPeers, maxQueries = 600, 300
	if peers > maxPeers {
		peers = maxPeers
	}
	if queries > maxQueries {
		queries = maxQueries
	}
	env := experiments.SharedEnv(experiments.Quick, seed)
	peerSet := experiments.MitigationPeers(env, peers)
	fmt.Printf("algo=%s/p2p peers=%d (measurement topology; -ens/-delta do not apply; capped at %d peers, %d queries) queries=%d loss=%.0f%% churn=%v\n",
		scheme, len(peerSet), maxPeers, maxQueries, queries, loss*100, churn)
	row, err := experiments.RunWireMitigation(env, peerSet, experiments.MitigationOpts{
		Scheme: scheme, Loss: loss, Churn: churn, Queries: queries, Seed: seed,
		Recorder: rec, Faults: plan,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "npsim:", err)
		os.Exit(2)
	}
	fmt.Printf("\nfound any peer          = %.2f\n", row.Found)
	fmt.Printf("P(peer within 10 ms)    = %.3f (over %d queries with a live near peer)\n", row.PNear, row.NearDenom)
	fmt.Printf("mean RTT of found peer  = %.1f ms\n", row.MeanFoundMs)
	fmt.Printf("mean probes per query   = %.1f (%d timed out: stale hints or loss)\n", row.MeanProbes, row.DeadProbes)
	fmt.Printf("mean DHT lookups/query  = %.1f (%.1f routing hops/query, %d lookup failures)\n", row.MeanLookups, row.MeanHops, row.LookupFails)
	fmt.Printf("mean messages per query = %.1f (maintenance included)\n", row.MeanMsgs)
	fmt.Printf("publish cost            = %.1f msgs/peer (publish window %v)\n", row.PubMsgsPerPeer, row.PubWindow.Round(time.Millisecond))
	fmt.Printf("RPC timeouts            = %d\n", row.Timeouts)
	fmt.Printf("ended by op deadline    = %d of %d queries\n", row.Backstopped, queries)
	if churn {
		fmt.Printf("churn                   = %d leaves, %d joins\n", row.Leaves, row.Joins)
	}
}

// runWireChord exercises the message-level Chord substrate by itself on
// the clustered matrix: sequential Put+Get pairs from random live nodes.
func runWireChord(m latency.Matrix, peers, queries int, loss float64, churn bool, seed int64, rec *obs.Recorder, plan *faults.Plan) {
	const maxOps = 500
	if queries > maxOps {
		queries = maxOps
	}
	fmt.Printf("algo=chord/p2p ops=%d (Put+Get pairs; capped at %d) loss=%.0f%% churn=%v\n",
		queries, maxOps, loss*100, churn)
	row := experiments.RunWireChord(m, experiments.WireChordOpts{
		Nodes: peers, Ops: queries, Loss: loss, Churn: churn, Seed: seed,
		Recorder: rec, Faults: plan,
	})
	fmt.Printf("\nring size               = %d nodes\n", row.Nodes)
	fmt.Printf("put acknowledged        = %.3f\n", row.PutOK)
	fmt.Printf("get returned the value  = %.3f\n", row.GetOK)
	fmt.Printf("mean routing hops/op    = %.1f (%.1f re-routed after timeout)\n", row.MeanHops, row.MeanRetries)
	fmt.Printf("mean messages per op    = %.1f (maintenance included)\n", row.MeanMsgs)
	fmt.Printf("RPC timeouts            = %d, lookup failures = %d\n", row.Timeouts, row.LookupFails)
	if churn {
		fmt.Printf("churn                   = %d leaves, %d joins\n", row.Leaves, row.Joins)
	}
}
