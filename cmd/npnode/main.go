// Command npnode serves nearest-peer protocol nodes over the UDP
// transport and talks to them: the deployable face of the reproduction's
// protocol stack. The same chord and runtime code that produces the
// simulated figures runs here over real datagrams.
//
//	npnode serve    -ids 0-9 -addr-template 127.0.0.1:77%02d ...   # daemon
//	npnode put      -as 10 -ids 0-9 ... <key> <value>              # store
//	npnode get      -as 10 -ids 0-9 ... <key>                      # fetch
//	npnode nearest  -as 10 -ids 0-9 ...                            # closest peer by RTT sweep
//	npnode oracle   -matrix m.json -from 10 -ids 0-9               # static ground truth
//	npnode genmatrix -n 12 -seed 5                                 # emit a latency matrix
//
// Addressing: -addr-template is a fmt pattern with one %d (the node ID)
// producing the full "host:port" of that node — "127.0.0.1:77%02d" for an
// in-process cluster on one machine, "node-%d:7000" for a docker-compose
// network. With -matrix and -delay, the transport prices an artificial
// receive-side delay from the matrix, so a cluster on the loopback
// interface exhibits the matrix's RTTs and `nearest` can be cross-checked
// against `oracle` (the CI live smoke does exactly that).
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"nearestpeer/internal/faults"
	"nearestpeer/internal/latency"
	"nearestpeer/internal/p2p"
	"nearestpeer/internal/rng"
)

func main() {
	log.SetFlags(log.Ltime | log.Lmicroseconds)
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "serve":
		err = cmdServe(os.Args[2:])
	case "put", "get", "nearest":
		err = cmdClient(os.Args[1], os.Args[2:])
	case "oracle":
		err = cmdOracle(os.Args[2:])
	case "genmatrix":
		err = cmdGenMatrix(os.Args[2:])
	default:
		usage()
		os.Exit(2)
	}
	var fe flagError
	if errors.As(err, &fe) {
		fmt.Fprintf(os.Stderr, "npnode %s: %v\n", os.Args[1], fe.err)
		os.Exit(2)
	}
	if err != nil {
		log.Fatalf("npnode %s: %v", os.Args[1], err)
	}
}

// flagError is a flag value the transport or the protocol would refuse:
// main prints it as one line and exits 2, the way the flag package treats
// a malformed flag, instead of letting a constructor panic on it.
type flagError struct{ err error }

func (e flagError) Error() string { return e.err.Error() }

// checkFlags returns the first failed configuration check as a flagError.
// Every verb runs its checks before it opens a socket.
func checkFlags(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return flagError{err}
		}
	}
	return nil
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: npnode <serve|put|get|nearest|oracle|genmatrix> [flags] [args]
Run "npnode <verb> -h" for the verb's flags.`)
}

// matrixFile is the on-disk latency matrix: symmetric RTTs in ms.
type matrixFile struct {
	N   int         `json:"n"`
	RTT [][]float64 `json:"rtt"`
}

func loadMatrix(path string) (*latency.Dense, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var mf matrixFile
	if err := json.Unmarshal(b, &mf); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	if mf.N <= 0 || len(mf.RTT) != mf.N {
		return nil, fmt.Errorf("%s: bad matrix dimensions", path)
	}
	for i, row := range mf.RTT {
		if len(row) != mf.N {
			return nil, fmt.Errorf("%s: row %d has %d entries, want %d", path, i, len(row), mf.N)
		}
	}
	m := latency.NewDense(mf.N)
	for i := 0; i < mf.N; i++ {
		for j := i + 1; j < mf.N; j++ {
			switch rtt := mf.RTT[i][j]; {
			case rtt < 0:
				return nil, fmt.Errorf("%s: rtt[%d][%d] = %v is negative", path, i, j, rtt)
			case rtt != mf.RTT[j][i]:
				return nil, fmt.Errorf("%s: rtt[%d][%d] = %v but rtt[%d][%d] = %v; RTTs must be symmetric", path, i, j, rtt, j, i, mf.RTT[j][i])
			default:
				m.Set(i, j, rtt)
			}
		}
	}
	return m, nil
}

// parseIDs parses "0-9,12,15" into a sorted list of node IDs.
func parseIDs(spec string) ([]p2p.NodeID, error) {
	var out []p2p.NodeID
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		if lo, hi, ok := strings.Cut(part, "-"); ok {
			a, err1 := strconv.Atoi(lo)
			b, err2 := strconv.Atoi(hi)
			if err1 != nil || err2 != nil || a > b || a < 0 {
				return nil, fmt.Errorf("bad id range %q", part)
			}
			for i := a; i <= b; i++ {
				out = append(out, p2p.NodeID(i))
			}
			continue
		}
		v, err := strconv.Atoi(part)
		if err != nil || v < 0 {
			return nil, fmt.Errorf("bad id %q", part)
		}
		out = append(out, p2p.NodeID(v))
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty id list %q", spec)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}

// clusterFlags are the flags every networked verb shares.
type clusterFlags struct {
	ids        string
	n          int
	addrTmpl   string
	matrixPath string
	delay      bool
	rpcTimeout time.Duration
	seed       int64
}

func (c *clusterFlags) register(fs *flag.FlagSet) {
	fs.StringVar(&c.ids, "ids", "", "cluster member node IDs, e.g. 0-9 or 0,3,7")
	fs.IntVar(&c.n, "n", 0, "ID-space bound (defaults to the matrix size, or max id+1)")
	fs.StringVar(&c.addrTmpl, "addr-template", "127.0.0.1:77%02d", "fmt pattern with one %d mapping a node ID to host:port")
	fs.StringVar(&c.matrixPath, "matrix", "", "latency matrix JSON (see genmatrix)")
	fs.BoolVar(&c.delay, "delay", false, "price artificial receive delays from -matrix")
	fs.DurationVar(&c.rpcTimeout, "rpc-timeout", 2*time.Second, "per-RPC timeout")
	fs.Int64Var(&c.seed, "seed", 1, "rng seed (protocol draws; loss is a serve -faults rule)")
}

// transportConfig is the UDP transport's configuration.
func (c *clusterFlags) transportConfig() p2p.Config {
	return p2p.Config{RPCTimeout: c.rpcTimeout}
}

// build resolves the shared flags: member list, population, and an
// optional delay matrix.
func (c *clusterFlags) build(extra ...p2p.NodeID) (members []p2p.NodeID, pop int, dm *latency.Dense, err error) {
	if c.ids == "" {
		return nil, 0, nil, fmt.Errorf("-ids is required")
	}
	members, err = parseIDs(c.ids)
	if err != nil {
		return nil, 0, nil, err
	}
	max := members[len(members)-1]
	for _, id := range extra {
		if id > max {
			max = id
		}
	}
	pop = c.n
	if c.matrixPath != "" {
		if dm, err = loadMatrix(c.matrixPath); err != nil {
			return nil, 0, nil, err
		}
		if pop == 0 {
			pop = dm.N()
		}
	}
	if pop == 0 {
		pop = int(max) + 1
	}
	if int(max) >= pop {
		return nil, 0, nil, fmt.Errorf("id %d outside population %d", max, pop)
	}
	if c.delay && dm == nil {
		return nil, 0, nil, fmt.Errorf("-delay requires -matrix")
	}
	return members, pop, dm, nil
}

// addrOf applies the address template to a node ID.
func (c *clusterFlags) addrOf(id p2p.NodeID) string {
	return fmt.Sprintf(c.addrTmpl, int(id))
}

// newTransport stands a UDP transport up: sockets for the local IDs,
// peer-table entries for everyone else. listenOverride, when non-empty,
// is the bind address of the (single) local ID — the docker deployment
// binds 0.0.0.0 while peers reach it by service name.
func (c *clusterFlags) newTransport(members, local []p2p.NodeID, pop int, dm *latency.Dense, listenOverride string) (*p2p.UDP, error) {
	u := p2p.NewUDP(pop, c.transportConfig(), c.seed)
	if c.delay {
		u.SetDelayMatrix(dm)
	}
	localSet := make(map[p2p.NodeID]bool, len(local))
	for _, id := range local {
		bind := c.addrOf(id)
		if listenOverride != "" {
			bind = listenOverride
		}
		addr, err := u.Listen(id, bind)
		if err != nil {
			u.Close()
			return nil, err
		}
		localSet[id] = true
		log.Printf("node %d listening on %s", id, addr)
	}
	for _, id := range members {
		if localSet[id] {
			continue
		}
		// Peers may not resolve yet (containers racing up): log and move
		// on — addresses are also learned from incoming datagrams, and
		// chord's stabilize retries through the membership.
		if err := u.AddPeer(id, c.addrOf(id)); err != nil {
			log.Printf("peer %d: %v (will rely on learned addresses)", id, err)
		}
	}
	return u, nil
}

// chordConfig is the deployment's chord tuning.
func chordConfig(stabilize, rpcTimeout time.Duration) p2p.ChordConfig {
	cfg := p2p.DefaultChordConfig()
	cfg.StabilizeEvery = stabilize
	cfg.RPCTimeout = rpcTimeout
	return cfg
}

func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	var cf clusterFlags
	cf.register(fs)
	serveIDs := fs.String("serve-ids", "", "IDs served by this process (default: all of -ids)")
	listen := fs.String("listen", "", "bind address override (single served ID only)")
	stabilize := fs.Duration("stabilize", 200*time.Millisecond, "chord stabilize period")
	faultSpec := fs.String("faults", "", `deterministic fault plan over the UDP wire, e.g. "seed=7;burst:at=10s,for=30s,prob=0.3" (see internal/faults; time counts from transport start)`)
	status := fs.Duration("status", 2*time.Second, "status log period (0 disables)")
	fs.Parse(args)
	chordCfg := chordConfig(*stabilize, cf.rpcTimeout)
	if err := checkFlags(cf.transportConfig().Validate(), chordCfg.Validate()); err != nil {
		return err
	}

	members, pop, dm, err := cf.build()
	if err != nil {
		return err
	}
	local := members
	if *serveIDs != "" {
		if local, err = parseIDs(*serveIDs); err != nil {
			return err
		}
	}
	if *listen != "" && len(local) != 1 {
		return fmt.Errorf("-listen needs exactly one served ID, got %d", len(local))
	}

	u, err := cf.newTransport(members, local, pop, dm, *listen)
	if err != nil {
		return err
	}
	defer u.Close()
	if *faultSpec != "" {
		plan, perr := faults.Parse(*faultSpec)
		if perr != nil {
			return perr
		}
		if err := p2p.InstallFaults(u, plan); err != nil {
			return err
		}
		log.Printf("fault plan armed: %s", plan)
	}

	ch := p2p.NewChord(u, chordCfg, cf.seed)
	u.Do(func() {
		localSet := make(map[p2p.NodeID]bool, len(local))
		for _, id := range local {
			localSet[id] = true
		}
		var remote []p2p.NodeID
		for _, id := range members {
			if !localSet[id] {
				remote = append(remote, id)
			}
		}
		// Remote members enter the bootstrap handout; local ones enter it
		// by joining, so an in-process cluster bootstraps off itself.
		ch.Bootstrap(remote...)
		for _, id := range local {
			ch.Join(id)
			log.Printf("node %d joined the ring (ring id %016x)", id, ch.RingIDOf(id))
		}
	})

	// Log once when every locally served node agrees with the ring order
	// of the full membership — the same convergence criterion the
	// differential test gates on. Scripts (scripts/livesmoke.sh) wait for
	// this line before running client operations: a put racing the initial
	// join churn can land at a transient owner and strand the key.
	go func() {
		for range time.Tick(100 * time.Millisecond) {
			converged := false
			u.Do(func() { converged = ringConverged(ch, members, local) })
			if converged {
				log.Printf("ring converged (%d members)", len(members))
				return
			}
		}
	}()

	if *status > 0 {
		go func() {
			for range time.Tick(*status) {
				u.Do(func() {
					for _, id := range local {
						succ, sok := ch.SuccessorOf(id)
						pred, pok := ch.PredecessorOf(id)
						m := u.SerialMetrics()
						log.Printf("node %d: succ=%v(%v) pred=%v(%v) members=%d sent=%d delivered=%d timeouts=%d",
							id, succ, sok, pred, pok, ch.NumMembers(), m.MsgsSent, m.MsgsDelivered, m.Timeouts)
					}
				})
			}
		}()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	s := <-sig
	log.Printf("caught %v: leaving the ring", s)
	// Graceful departure: each served node hands its keys to its successor
	// and stops, so a key stored here survives this process's shutdown as
	// long as the successor is in another process (the live smoke's
	// restart round gates on exactly that).
	u.Do(func() {
		for _, id := range local {
			ch.Leave(id, true)
			log.Printf("node %d left the ring (graceful handoff)", id)
		}
	})
	// Let the handoff datagrams drain before the sockets close.
	time.Sleep(500 * time.Millisecond)
	log.Printf("shutdown complete")
	return nil
}

// ringConverged reports whether every locally served node's successor
// matches the successor implied by the members' ring IDs — a pure
// function of the (static) membership, so it needs no global view.
func ringConverged(ch *p2p.Chord, members, local []p2p.NodeID) bool {
	if len(members) < 2 {
		return true
	}
	for _, id := range local {
		succ, ok := ch.SuccessorOf(id)
		if !ok || succ != ringSuccessor(ch, members, id) {
			return false
		}
	}
	return true
}

// ringSuccessor computes successor(id) over the membership by ring IDs:
// the member at the smallest clockwise ring distance from id.
func ringSuccessor(ch *p2p.Chord, members []p2p.NodeID, id p2p.NodeID) p2p.NodeID {
	self := ch.RingIDOf(id)
	best := p2p.NoNode
	var bestDist uint64
	for _, m := range members {
		if m == id {
			continue
		}
		d := ch.RingIDOf(m) - self // wrapping clockwise distance
		if best == p2p.NoNode || d < bestDist {
			best, bestDist = m, d
		}
	}
	return best
}

func cmdClient(verb string, args []string) error {
	fs := flag.NewFlagSet(verb, flag.ExitOnError)
	var cf clusterFlags
	cf.register(fs)
	as := fs.Int("as", -1, "client node ID (a matrix row when -delay is used)")
	opTimeout := fs.Duration("op-timeout", 15*time.Second, "whole-operation deadline")
	fs.Parse(args)
	checks := []error{cf.transportConfig().Validate()}
	chordCfg := chordConfig(time.Second, cf.rpcTimeout)
	if verb != "nearest" {
		checks = append(checks, chordCfg.Validate())
	}
	if err := checkFlags(checks...); err != nil {
		return err
	}
	if *as < 0 {
		return fmt.Errorf("-as is required")
	}
	client := p2p.NodeID(*as)

	members, pop, dm, err := cf.build(client)
	if err != nil {
		return err
	}
	for _, m := range members {
		if m == client {
			return fmt.Errorf("-as %d is a cluster member; pick a spare ID", client)
		}
	}

	u, err := cf.newTransport(members, nil, pop, dm, "")
	if err != nil {
		return err
	}
	defer u.Close()
	// The client binds an ephemeral port; daemons learn its address from
	// its datagrams.
	if _, err := u.Listen(client, "127.0.0.1:0"); err != nil {
		return err
	}

	done := make(chan error, 1)
	switch verb {
	case "put":
		if fs.NArg() != 2 {
			return fmt.Errorf("usage: npnode put [flags] <key> <value>")
		}
		key, val := fs.Arg(0), fs.Arg(1)
		ch := p2p.NewChord(u, chordCfg, cf.seed)
		u.Do(func() {
			ch.Bootstrap(members...)
			ch.Put(client, key, []byte(val), func(res p2p.OpResult) {
				if !res.OK {
					done <- fmt.Errorf("put %s failed (hops=%d retries=%d lookupFails=%d)", key, res.Hops, res.Retries, res.LookupFails)
					return
				}
				fmt.Printf("put %s ok hops=%d\n", key, res.Hops)
				done <- nil
			})
		})
	case "get":
		if fs.NArg() != 1 {
			return fmt.Errorf("usage: npnode get [flags] <key>")
		}
		key := fs.Arg(0)
		ch := p2p.NewChord(u, chordCfg, cf.seed)
		u.Do(func() {
			ch.Bootstrap(members...)
			ch.Get(client, key, func(res p2p.OpResult) {
				if !res.OK || len(res.Vals) == 0 {
					done <- fmt.Errorf("get %s failed or empty (hops=%d retries=%d)", key, res.Hops, res.Retries)
					return
				}
				fmt.Printf("get %s = %s hops=%d\n", key, res.Vals[0], res.Hops)
				done <- nil
			})
		})
	case "nearest":
		if fs.NArg() != 0 {
			return fmt.Errorf("usage: npnode nearest [flags]")
		}
		u.Do(func() {
			q := p2p.NewQuery(u.Node(client), "sweep", cf.rpcTimeout)
			q.Sweep(members, func(best p2p.NodeID, rtt float64, ok bool) {
				if !ok {
					done <- fmt.Errorf("nearest: no peer answered (%d probes, %d dead)", q.Res.Probes, q.Res.DeadProbes)
					return
				}
				fmt.Printf("nearest %d rtt_ms %.3f probes %d dead %d\n", best, rtt, q.Res.Probes, q.Res.DeadProbes)
				done <- nil
			})
		})
	}
	select {
	case err := <-done:
		return err
	case <-time.After(*opTimeout):
		return fmt.Errorf("%s timed out after %v", verb, *opTimeout)
	}
}

func cmdOracle(args []string) error {
	fs := flag.NewFlagSet("oracle", flag.ExitOnError)
	matrixPath := fs.String("matrix", "", "latency matrix JSON")
	from := fs.Int("from", -1, "client matrix row")
	ids := fs.String("ids", "", "candidate node IDs")
	fs.Parse(args)
	if *matrixPath == "" || *from < 0 || *ids == "" {
		return fmt.Errorf("-matrix, -from and -ids are required")
	}
	m, err := loadMatrix(*matrixPath)
	if err != nil {
		return err
	}
	cands, err := parseIDs(*ids)
	if err != nil {
		return err
	}
	if *from >= m.N() {
		return fmt.Errorf("-from %d outside matrix of %d", *from, m.N())
	}
	best, bestRTT := -1, 0.0
	for _, id := range cands {
		if int(id) == *from || int(id) >= m.N() {
			continue
		}
		if rtt := m.LatencyMs(*from, int(id)); best < 0 || rtt < bestRTT {
			best, bestRTT = int(id), rtt
		}
	}
	if best < 0 {
		return fmt.Errorf("no candidates inside the matrix")
	}
	fmt.Printf("nearest %d rtt_ms %.3f\n", best, bestRTT)
	return nil
}

func cmdGenMatrix(args []string) error {
	fs := flag.NewFlagSet("genmatrix", flag.ExitOnError)
	n := fs.Int("n", 12, "matrix size (cluster nodes plus spare client rows)")
	seed := fs.Int64("seed", 5, "rng seed")
	fs.Parse(args)
	if *n < 2 {
		return fmt.Errorf("-n must be at least 2")
	}
	// Every pair gets a distinct RTT (5 + 2k ms over a seeded shuffle of
	// the pair index), so argmin comparisons — the oracle cross-check —
	// are never decided by sub-millisecond measurement noise.
	type pair struct{ i, j int }
	var pairs []pair
	for i := 0; i < *n; i++ {
		for j := i + 1; j < *n; j++ {
			pairs = append(pairs, pair{i, j})
		}
	}
	perm := rng.New(*seed).Split("matrix").Perm(len(pairs))
	mf := matrixFile{N: *n, RTT: make([][]float64, *n)}
	for i := range mf.RTT {
		mf.RTT[i] = make([]float64, *n)
	}
	for p, pr := range pairs {
		rtt := 5 + 2*float64(perm[p])
		mf.RTT[pr.i][pr.j] = rtt
		mf.RTT[pr.j][pr.i] = rtt
	}
	out, err := json.Marshal(mf)
	if err != nil {
		return err
	}
	_, err = fmt.Println(string(out))
	return err
}
