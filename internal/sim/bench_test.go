package sim

import (
	"testing"
	"time"
)

// BenchmarkScheduleRun is the kernel's hot loop: schedule a cascade of
// events and drain it. Before the value-heap queue this cost one *event
// allocation plus a container/heap interface boxing per event; now the only
// steady-state allocation is the callback closure.
func BenchmarkScheduleRun(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := New()
		n := 0
		var tick func()
		tick = func() {
			n++
			if n < 1000 {
				s.After(time.Duration(n%7)*time.Millisecond, tick)
			}
		}
		s.After(0, tick)
		s.Run()
	}
}

// BenchmarkDeepQueue pushes a wide pending set before draining, the shape a
// large fan-out (multicast round, chord join ramp) produces.
func BenchmarkDeepQueue(b *testing.B) {
	b.ReportAllocs()
	fn := func() {}
	for i := 0; i < b.N; i++ {
		s := New()
		for j := 0; j < 4096; j++ {
			s.At(time.Duration(j%101)*time.Millisecond, fn)
		}
		s.Run()
	}
}

// BenchmarkHandlerScheduleRun is the typed-payload twin of
// BenchmarkScheduleRun: the same 1000-event cascade through a registered
// handler, no closure — the kernel's allocation-free scheduling loop.
func BenchmarkHandlerScheduleRun(b *testing.B) {
	s := New()
	cnt := 0
	var h HandlerID
	h = s.RegisterHandler(func(arg uint64) {
		cnt++
		if cnt < 1000 {
			s.AfterHandler(time.Duration(cnt%7)*time.Millisecond, h, arg+1)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cnt = 0
		s.AfterHandler(0, h, 0)
		s.Run()
	}
}
