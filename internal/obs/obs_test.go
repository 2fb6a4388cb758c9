package obs

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"nearestpeer/internal/sim"
)

func TestRegistryCounters(t *testing.T) {
	r := NewRegistry(4)
	r.NoteSend(0, "ping")
	r.NoteSend(0, "ping")
	r.NoteSend(1, "c_find")
	r.NoteSend(2, "ping")
	r.NoteRecv(3)
	r.NoteRecv(3)
	// Out-of-range ids must be ignored, not panic: a registry can be
	// attached to a runtime whose population it was not sized for.
	r.NoteSend(99, "ping")
	r.NoteRecv(-1)
	if got := r.SentByNode()[0]; got != 2 {
		t.Fatalf("node 0 sent = %d, want 2", got)
	}
	if got := r.RecvByNode()[3]; got != 2 {
		t.Fatalf("node 3 recv = %d, want 2", got)
	}
	if got := r.TypeCount("ping"); got != 4 {
		t.Fatalf("ping count = %d, want 4", got)
	}
	if got := r.TypeCount("absent"); got != 0 {
		t.Fatalf("absent count = %d, want 0", got)
	}
	top := r.TopTypes(2)
	if len(top) != 2 || top[0].Type != "ping" || top[0].Count != 4 || top[1].Type != "c_find" {
		t.Fatalf("TopTypes = %+v", top)
	}
}

func TestRegistryTopTypesTieBreak(t *testing.T) {
	r := NewRegistry(1)
	r.NoteSend(0, "b")
	r.NoteSend(0, "a")
	top := r.TopTypes(0)
	if len(top) != 2 || top[0].Type != "a" || top[1].Type != "b" {
		t.Fatalf("equal counts must order by name: %+v", top)
	}
}

func TestRegistryQuantiles(t *testing.T) {
	r := NewRegistry(1)
	for i := 0; i < 100; i++ {
		r.ObserveLookupMs(10)
	}
	if r.Lookups() != 100 {
		t.Fatalf("Lookups = %d, want 100", r.Lookups())
	}
	p50 := r.LookupQuantileMs(0.5)
	// Histogram resolution is one log bin (~15%); the estimate must land
	// inside the bin that holds 10 ms.
	if p50 < 8 || p50 > 13 {
		t.Fatalf("p50 of constant 10ms = %v, want ~10", p50)
	}
}

func TestRecorderRing(t *testing.T) {
	r := NewRecorder(3)
	if r.Begin() != 1 || r.Begin() != 2 {
		t.Fatal("Begin must count up from 1")
	}
	for i := 0; i < 5; i++ {
		r.Record(Hop{Lookup: uint64(i), Scheme: "chord", Type: "c_find", From: i, To: i + 1})
	}
	if r.Len() != 3 || r.Recorded() != 5 || r.Dropped() != 2 {
		t.Fatalf("Len=%d Recorded=%d Dropped=%d, want 3/5/2", r.Len(), r.Recorded(), r.Dropped())
	}
	snap := r.Snapshot()
	if len(snap) != 3 || snap[0].Lookup != 2 || snap[2].Lookup != 4 {
		t.Fatalf("snapshot out of order: %+v", snap)
	}
}

func TestRecorderWriteJSON(t *testing.T) {
	r := NewRecorder(8)
	r.Record(Hop{Lookup: 1, Scheme: "vivaldi", Type: "v_walk", From: 3, To: 7,
		At: 1500 * time.Millisecond, RTTms: 42.5, Outcome: HopTimeout})
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	var doc struct {
		Schema   string `json:"schema"`
		Recorded uint64 `json:"recorded"`
		Dropped  uint64 `json:"dropped"`
		Hops     []struct {
			Scheme  string  `json:"scheme"`
			AtMs    float64 `json:"at_ms"`
			RTTms   float64 `json:"rtt_ms"`
			Outcome string  `json:"outcome"`
		} `json:"hops"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if doc.Schema != "nearestpeer/flight_recorder/v1" || doc.Recorded != 1 || doc.Dropped != 0 {
		t.Fatalf("header: %+v", doc)
	}
	h := doc.Hops[0]
	if h.Scheme != "vivaldi" || h.AtMs != 1500 || h.RTTms != 42.5 || h.Outcome != "timeout" {
		t.Fatalf("hop: %+v", h)
	}
}

func TestOutcomeStrings(t *testing.T) {
	want := map[Outcome]string{HopOK: "ok", HopTimeout: "timeout", HopRetry: "retry", HopAlternate: "alternate", Outcome(99): "unknown"}
	for o, s := range want {
		if o.String() != s {
			t.Fatalf("Outcome(%d).String() = %q, want %q", o, o.String(), s)
		}
	}
}

func TestSamplerTicksAndHorizon(t *testing.T) {
	kernel := sim.New()
	live := 10
	s := NewSampler(kernel, time.Second, 5*time.Second, 16, func() (int, int, int) {
		return 2, kernel.Pending(), live
	})
	s.Start()
	kernel.Run()
	// Ticks at 1s..5s; the tick at 5s must not reschedule past the horizon.
	if s.Count() != 5 {
		t.Fatalf("Count = %d, want 5", s.Count())
	}
	samples := s.Samples()
	if len(samples) != 5 || samples[0].At != time.Second || samples[4].At != 5*time.Second {
		t.Fatalf("samples: %+v", samples)
	}
	if samples[0].Inflight != 2 || samples[0].Live != 10 {
		t.Fatalf("probe values not recorded: %+v", samples[0])
	}
}

func TestSamplerRingWrap(t *testing.T) {
	kernel := sim.New()
	s := NewSampler(kernel, time.Second, 6*time.Second, 4, func() (int, int, int) { return 0, 0, 0 })
	s.Start()
	kernel.Run()
	samples := s.Samples()
	if s.Count() != 6 || len(samples) != 4 {
		t.Fatalf("Count=%d len=%d, want 6/4", s.Count(), len(samples))
	}
	if samples[0].At != 3*time.Second || samples[3].At != 6*time.Second {
		t.Fatalf("wrapped samples out of order: %+v", samples)
	}
}

func TestObsWritePathsZeroAlloc(t *testing.T) {
	reg := NewRegistry(64)
	rec := NewRecorder(32)
	kernel := sim.New()
	s := NewSampler(kernel, time.Millisecond, time.Hour, 8, func() (int, int, int) { return 1, kernel.Pending(), 64 })
	// Warm up: see every message type once, wrap both rings, grow the
	// kernel queue to its high-water mark.
	for i := 0; i < 64; i++ {
		reg.NoteSend(i%64, "ping")
		reg.NoteSend(i%64, "c_find")
		reg.ObserveLookupMs(float64(i + 1))
		rec.Record(Hop{Lookup: uint64(i), Scheme: "chord", Type: "c_find"})
	}
	s.Start()
	kernel.RunUntil(10 * time.Millisecond)
	allocs := testing.AllocsPerRun(1000, func() {
		reg.NoteSend(7, "ping")
		reg.NoteRecv(9)
		reg.ObserveLookupMs(12.5)
		rec.Record(Hop{Lookup: 1, Scheme: "chord", Type: "c_find", From: 1, To: 2, RTTms: 10})
		now := kernel.Now()
		kernel.RunUntil(now + 5*time.Millisecond)
	})
	if allocs != 0 {
		t.Fatalf("obs write paths allocated %.1f allocs/op, want 0", allocs)
	}
}
