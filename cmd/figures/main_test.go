package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for figures: re-executed with
// FIGURES_TEST_MAIN set, it runs main() on its arguments.
func TestMain(m *testing.M) {
	if os.Getenv("FIGURES_TEST_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestBadFlagsExitTwo: an experiment name that is not on the list, or a
// shard count outside [1, maxShards], is one line on stderr and exit status
// 2 before anything runs. `-only s2` used to run nothing and exit 0.
func TestBadFlagsExitTwo(t *testing.T) {
	for _, tc := range []struct {
		args string
		want string
	}{
		{"-only s2", `-only "s2": no such experiment (experiments: table1, fig3,`},
		{"-only S1", `-only "S1": no such experiment`},
		{"-only s1 -shards 0", "-shards 0 outside [1, 256]"},
		{"-only s1 -shards -3", "-shards -3 outside [1, 256]"},
		{"-only s1 -shards 70000", "-shards 70000 outside [1, 256]"},
	} {
		t.Run(tc.args, func(t *testing.T) {
			cmd := exec.Command(os.Args[0], strings.Fields(tc.args)...)
			cmd.Env = append(os.Environ(), "FIGURES_TEST_MAIN=1")
			var stdout, stderr strings.Builder
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			var exit *exec.ExitError
			if err := cmd.Run(); !errors.As(err, &exit) || exit.ExitCode() != 2 {
				t.Fatalf("figures %s: %v, want exit status 2\n%s", tc.args, err, stderr.String())
			}
			msg := strings.TrimSpace(stderr.String())
			if !strings.Contains(msg, tc.want) || strings.Contains(msg, "\n") {
				t.Fatalf("figures %s said %q, want one line naming %q", tc.args, msg, tc.want)
			}
			if stdout.Len() != 0 {
				t.Fatalf("figures %s ran something:\n%s", tc.args, stdout.String())
			}
		})
	}
}
