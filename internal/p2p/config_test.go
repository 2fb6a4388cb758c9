package p2p

import (
	"strings"
	"testing"
	"time"

	"nearestpeer/internal/latency"
	"nearestpeer/internal/sim"
)

// TestConfigValidate: the validator rejects impossible knobs and accepts
// everything the constructors have historically defaulted.
func TestConfigValidate(t *testing.T) {
	good := []Config{
		{},                            // all-zero: timeout defaults, no retry
		DefaultConfig(),               // the documented baseline
		{RPCTimeout: time.Nanosecond}, // extreme but legal
	}
	for _, cfg := range good {
		if err := cfg.Validate(); err != nil {
			t.Errorf("Validate(%+v) = %v, want nil", cfg, err)
		}
	}
	bad := []struct {
		cfg  Config
		want string
	}{
		{Config{RPCTimeout: -time.Second}, "negative RPC timeout"},
	}
	for _, tc := range bad {
		err := tc.cfg.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Validate(%+v) = %v, want error containing %q", tc.cfg, err, tc.want)
		}
	}
}

// TestConfigConstructorsReject: every transport constructor — serial,
// sharded, and live — refuses an invalid Config at construction time.
func TestConfigConstructorsReject(t *testing.T) {
	bad := Config{RPCTimeout: -time.Second}
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s accepted a negative RPC timeout", name)
			}
		}()
		f()
	}
	m := faultTestMatrix(2)
	mustPanic("New", func() { New(sim.New(), m, bad, 1) })
	mustPanic("NewSharded", func() {
		shk := sim.NewSharded(2, 5*time.Millisecond)
		NewSharded(shk, []latency.Matrix{m, m}, bad, 1, []int32{0, 1})
	})
	mustPanic("NewLoopback", func() { NewLoopback(m, bad, 1) })

	// Zero timeout still means "default", not an error.
	r := New(sim.New(), m, Config{}, 1)
	if r.cfg.RPCTimeout != DefaultConfig().RPCTimeout {
		t.Errorf("zero RPCTimeout defaulted to %v, want %v", r.cfg.RPCTimeout, DefaultConfig().RPCTimeout)
	}
}
