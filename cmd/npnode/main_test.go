package main

import (
	"context"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestMain lets the test binary stand in for npnode: re-executed with
// NPNODE_TEST_MAIN set, it runs main() on its arguments.
func TestMain(m *testing.M) {
	if os.Getenv("NPNODE_TEST_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestBadChordFlagsExitTwo: a stabilize period or RPC timeout the chord
// protocol or the UDP transport would refuse is one line on stderr and
// exit status 2, checked before any socket opens, never a Go stack trace.
// Each of these used to die in NewChord ("invalid chord config") or, for a
// negative timeout, in the transport's constructor.
func TestBadChordFlagsExitTwo(t *testing.T) {
	for _, tc := range []struct {
		args string
		want string
	}{
		{"serve -ids 0 -stabilize 0", "StabilizeEvery 0s must be positive"},
		{"serve -ids 0 -rpc-timeout 0", "RPCTimeout 0s must be positive"},
		{"serve -ids 0 -rpc-timeout -1s", "negative RPC timeout -1s"},
		{"put -as 1 -ids 0 -rpc-timeout 0 k v", "RPCTimeout 0s must be positive"},
		{"get -as 1 -ids 0 -rpc-timeout 0 k", "RPCTimeout 0s must be positive"},
		{"get -as 1 -ids 0 -rpc-timeout -1s k", "negative RPC timeout -1s"},
		{"nearest -as 1 -ids 0 -rpc-timeout -1s", "negative RPC timeout -1s"},
	} {
		t.Run(tc.args, func(t *testing.T) {
			cmd := exec.Command(os.Args[0], strings.Fields(tc.args)...)
			cmd.Env = append(os.Environ(), "NPNODE_TEST_MAIN=1")
			var stderr strings.Builder
			cmd.Stderr = &stderr
			cmd.Run()
			if strings.Contains(stderr.String(), "goroutine ") {
				t.Fatalf("npnode %s panicked:\n%s", tc.args, stderr.String())
			}
			if code := cmd.ProcessState.ExitCode(); code != 2 {
				t.Fatalf("npnode %s exited %d, want 2\n%s", tc.args, code, stderr.String())
			}
			msg := strings.TrimSpace(stderr.String())
			if !strings.Contains(msg, tc.want) || strings.Contains(msg, "\n") {
				t.Fatalf("npnode %s said %q, want one line naming %q", tc.args, msg, tc.want)
			}
		})
	}
}

// TestBadMatrixFileIsAnError: a matrix file with a negative or asymmetric
// RTT is one error line naming the entry, from oracle and from serve
// alike, never a Go stack trace (a negative entry used to panic in
// Dense.Set) and never silently read as the upper triangle's value. A serve
// that accepts the file would run until killed, hence the deadline.
func TestBadMatrixFileIsAnError(t *testing.T) {
	for _, tc := range []struct {
		name, rtt, want string
	}{
		{"negative", "[[0,-3],[-3,0]]", "rtt[0][1] = -3 is negative"},
		{"asymmetric", "[[0,3],[5,0]]", "rtt[0][1] = 3 but rtt[1][0] = 5"},
	} {
		path := filepath.Join(t.TempDir(), tc.name+".json")
		if err := os.WriteFile(path, []byte(`{"n":2,"rtt":`+tc.rtt+`}`), 0o644); err != nil {
			t.Fatal(err)
		}
		for _, args := range [][]string{
			{"oracle", "-matrix", path, "-from", "0", "-ids", "1"},
			{"serve", "-ids", "0", "-matrix", path},
		} {
			t.Run(tc.name+"/"+args[0], func(t *testing.T) {
				ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
				defer cancel()
				cmd := exec.CommandContext(ctx, os.Args[0], args...)
				cmd.Env = append(os.Environ(), "NPNODE_TEST_MAIN=1")
				var stderr strings.Builder
				cmd.Stderr = &stderr
				cmd.Run()
				msg := strings.TrimSpace(stderr.String())
				if strings.Contains(msg, "goroutine ") {
					t.Fatalf("npnode %s panicked:\n%s", args[0], msg)
				}
				if cmd.ProcessState.ExitCode() == 0 {
					t.Fatalf("npnode %s accepted the matrix", args[0])
				}
				if !strings.Contains(msg, tc.want) || strings.Contains(msg, "\n") {
					t.Fatalf("npnode %s said %q, want one line naming %q", args[0], msg, tc.want)
				}
			})
		}
	}
}
