package netmodel

import (
	"sync"
	"testing"
)

func BenchmarkGenerateDefault(b *testing.B) {
	for i := 0; i < b.N; i++ {
		Generate(DefaultConfig(), int64(i))
	}
}

func BenchmarkRTT(b *testing.B) {
	top := Generate(DefaultConfig(), 1)
	n := len(top.Hosts)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = top.RTTms(HostID(i%n), HostID((i*7+3)%n))
	}
}

// benchTop is built once per process, outside the timers — and lazily, so
// plain `go test` runs that select no benchmark never pay for the generation.
var benchTop = sync.OnceValue(func() *Topology { return Generate(DefaultConfig(), 1) })

// BenchmarkTreeOneWayMs is the raw pricing hot path over a prebuilt
// topology: flat-table loads plus the hub lookup, no shortcut hash.
func BenchmarkTreeOneWayMs(b *testing.B) {
	top := benchTop()
	n := top.NumHosts()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = top.TreeOneWayMs(HostID(i%n), HostID((i*7+3)%n))
	}
}

// BenchmarkRTTCacheHit prices one pair repeatedly through the pair cache —
// the chord-stabilize access pattern.
func BenchmarkRTTCacheHit(b *testing.B) {
	top := benchTop()
	c := NewRTTCache(top, 0)
	n := top.NumHosts()
	c.RTTms(0, HostID(n/2))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = c.RTTms(0, HostID(n/2))
	}
}

func BenchmarkPath(b *testing.B) {
	top := Generate(DefaultConfig(), 1)
	n := len(top.Hosts)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = top.Path(HostID(i%n), HostID((i*7+3)%n))
	}
}
