package p2p

import (
	"encoding/binary"
	"runtime"
	"testing"
)

// findOKFrame is a populated c_find_ok reply: the frame a chord lookup hop
// answers with, the most common payload on the live path.
func findOKFrame(t testing.TB) []byte {
	b, err := EncodeEnvelope(Envelope{Type: MsgChordFindOK, From: 4, To: 3, MsgID: 1 << 40, Resp: true,
		Payload: cFindOKMsg{Owner: NoNode, Reps: []NodeID{6, 7}, Next: 12, Alts: []NodeID{8, 9, 10}}})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestDecodeAllocs holds decoding a populated c_find_ok frame to the
// payload's own two slices plus the one box that carries it in the
// envelope: the type tag is the registered string, and the decode scratch
// is recycled.
func TestDecodeAllocs(t *testing.T) {
	frame := findOKFrame(t)
	if got := testing.AllocsPerRun(200, func() {
		if _, err := DecodeEnvelope(frame); err != nil {
			t.Fatal(err)
		}
	}); got > 3 {
		t.Errorf("decoding a c_find_ok frame: %.1f allocs, want ≤ 3 (Reps, Alts, the box)", got)
	}
}

// TestCodecRejectsHugeCount feeds frames whose body claims 2³² slice
// elements, 2³² bytes and 2³² map entries: each is refused by the count
// check, before anything is allocated for the elements.
func TestCodecRejectsHugeCount(t *testing.T) {
	claim := binary.AppendUvarint(nil, 1<<32+1) // count + 1, nil being 0
	frames := map[string][]byte{
		"slice": payloadFrame("c_find_ok", append(append([]byte{0, 0}, claim...), 2, 4)),
		"bytes": payloadFrame("c_store", append(append([]byte{1, 'k'}, claim...), 'v')),
		"map":   payloadFrame("c_handoff", append(claim, 1, 'a', 0)),
	}
	for name, frame := range frames {
		if _, err := DecodeEnvelope(frame); err == nil {
			t.Fatalf("%s: a frame claiming 2^32 elements decoded", name)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		const runs = 100
		for i := 0; i < runs; i++ {
			_, _ = DecodeEnvelope(frame)
		}
		runtime.ReadMemStats(&after)
		if per := (after.TotalAlloc - before.TotalAlloc) / runs; per > 1024 {
			t.Errorf("%s: refusing the claim allocated %d bytes per decode", name, per)
		}
	}
}

// BenchmarkCodec times encoding and decoding the c_find_ok reply, so a
// codec change that brings back per-field reflection through a generic
// serializer (JSON cost ~2 µs per frame) shows.
func BenchmarkCodec(b *testing.B) {
	frame := findOKFrame(b)
	env, err := DecodeEnvelope(frame)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		var buf []byte
		for i := 0; i < b.N; i++ {
			if buf, err = appendEnvelope(buf[:0], env); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := DecodeEnvelope(frame); err != nil {
				b.Fatal(err)
			}
		}
	})
}
