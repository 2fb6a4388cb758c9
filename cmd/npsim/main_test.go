package main

import (
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for npsim: re-executed with
// NPSIM_TEST_MAIN set, it runs main() on its arguments.
func TestMain(m *testing.M) {
	if os.Getenv("NPSIM_TEST_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestBadPopulationFlagsExitTwo: a population flag no matrix or deployment
// can be built from, a query count no mean can be taken over, a shard count
// outside [1, maxShards] or a model flag outside its range (β, ring size, δ,
// noise, -scale) is one line on stderr and exit status 2,
// never a Go stack trace. `-peers 1` used to die
// in latency.NewClustered, `-runtime -algo guyton -peers 5` in beacon.New,
// and the static `-queries 0` used to print four NaNs and exit 0.
func TestBadPopulationFlagsExitTwo(t *testing.T) {
	for _, tc := range []struct {
		args string
		want string // "" = must run to completion
	}{
		{"-peers 1", "TotalPeers 1"},
		{"-peers 0", "TotalPeers 0"},
		{"-ens 0", "ENsPerCluster 0"},
		{"-runtime -peers 1", "TotalPeers 1"},
		{"-runtime -algo chord -peers 1", "TotalPeers 1"},
		{"-peers 4 -ens 1", "cannot hold out 100 query targets"},
		{"-runtime -algo guyton -peers 5 -queries 3", ""},
		{"-runtime -algo beaconing -peers 2 -queries 3", ""},
		{"-runtime -algo guyton -peers 1", "at least 2 peers"},
		{"-algo tiers -peers 400 -queries 0", "at least 1 query, got 0"},
		{"-algo tiers -peers 400 -queries -3", "at least 1 query, got -3"},
		{"-algo chord -peers 400", "no static finder"},
		// -shards used to run as 1 below 1, panic in sim.NewSharded past its
		// limit, and run out of memory on the shard-pair mailboxes between.
		{"-scale 1000 -queries 5 -shards -3", "-shards -3 outside [1, 256]"},
		{"-scale 1000 -queries 5 -shards 0", "-shards 0 outside [1, 256]"},
		{"-scale 1000 -queries 5 -shards 257", "-shards 257 outside [1, 256]"},
		{"-scale 1000 -queries 5 -shards 70000", "-shards 70000 outside [1, 256]"},
		// Out-of-range model flags used to run on values nobody asked for:
		// a negative β as 1.0 probe/query, -runtime's β and ring as the
		// defaults, δ as clamped hub latencies, negative noise as none, and
		// a negative -scale as the default static study.
		{"-beta -1", "Beta -1 outside (0, 1)"},
		{"-beta 1.5", "Beta 1.5 outside (0, 1)"},
		{"-runtime -beta -1", "Beta -1 outside (0, 1)"},
		{"-runtime -ring 0", "RingSize 0 must be positive"},
		{"-delta -5", "Delta -5 outside [0, 1]"},
		{"-delta 2", "Delta 2 outside [0, 1]"},
		{"-noise -3", "-noise -3 must not be negative"},
		{"-scale -5", "-scale -5 must not be negative"},
	} {
		t.Run(tc.args, func(t *testing.T) {
			cmd := exec.Command(os.Args[0], strings.Fields(tc.args)...)
			cmd.Env = append(os.Environ(), "NPSIM_TEST_MAIN=1")
			var stderr strings.Builder
			cmd.Stderr = &stderr
			err := cmd.Run()
			if strings.Contains(stderr.String(), "goroutine ") {
				t.Fatalf("npsim %s panicked:\n%s", tc.args, stderr.String())
			}
			if tc.want == "" {
				if err != nil {
					t.Fatalf("npsim %s: %v\n%s", tc.args, err, stderr.String())
				}
				return
			}
			if code := cmd.ProcessState.ExitCode(); code != 2 {
				t.Fatalf("npsim %s exited %d, want 2\n%s", tc.args, code, stderr.String())
			}
			msg := strings.TrimSpace(stderr.String())
			if !strings.Contains(msg, tc.want) || strings.Contains(msg, "\n") {
				t.Fatalf("npsim %s said %q, want one line naming %q", tc.args, msg, tc.want)
			}
		})
	}
}
