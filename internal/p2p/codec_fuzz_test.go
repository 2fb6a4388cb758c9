package p2p

import (
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"testing"
)

// fuzzSeedEnvelopes is the set of well-formed envelopes seeding the fuzz
// corpus: one per protocol payload family, plus the payload-less pings.
func fuzzSeedEnvelopes() []Envelope {
	return []Envelope{
		{Type: MsgPing, From: 1, To: 2, MsgID: 7},
		{Type: MsgPong, From: 2, To: 1, MsgID: 7, Resp: true},
		{Type: MsgChordFind, From: 3, To: 4, MsgID: 99, Payload: cFindMsg{Key: 0xDEADBEEF}},
		{Type: MsgChordFindOK, From: 4, To: 3, MsgID: 99, Resp: true,
			Payload: cFindOKMsg{Done: true, Owner: 5, Reps: []NodeID{6, 7}, Next: NoNode, Alts: []NodeID{8}}},
		{Type: MsgChordStore, From: 0, To: 5, MsgID: 12,
			Payload: cStoreMsg{Key: "k", Val: []byte{0, 1, 2, 0xFF}, Rep: 3}},
		{Type: MsgChordFetchOK, From: 5, To: 0, MsgID: 13, Resp: true,
			Payload: cFetchOKMsg{Vals: [][]byte{[]byte("a"), nil, []byte("b")}}},
		{Type: MsgChordHandoff, From: 1, To: 2, MsgID: 14,
			Payload: cHandoffMsg{Data: map[string][][]byte{"x": {[]byte("y")}}}},
		{Type: "m_rings", From: 9, To: 10, MsgID: 15, Payload: registeredPayload("m_rings", `{"D":12.5}`)},
		{Type: "m_rings_ok", From: 10, To: 9, MsgID: 16, Resp: true,
			Payload: registeredPayload("m_rings_ok", `{"IDs":[3,11,42]}`)},
		{Type: MsgFind, From: 0, To: 1, MsgID: 17, Payload: findMsg{SID: 4, From: 0, Round: 2}},
	}
}

// registeredPayload builds a payload of the type another package registered
// under name, from its JSON body: the seeds' Meridian ring request and reply
// are internal/meridian's types, which this package cannot name
// (payloads_test.go links the package in).
func registeredPayload(name, body string) any {
	payloadRegistry.RLock()
	t, ok := payloadRegistry.byName[name]
	payloadRegistry.RUnlock()
	if !ok {
		panic(fmt.Sprintf("payload %q is not registered", name))
	}
	v := reflect.New(t)
	if err := json.Unmarshal([]byte(body), v.Interface()); err != nil {
		panic(err)
	}
	return v.Elem().Interface()
}

// TestEnvelopeCodecRoundTrip pins the codec's happy path: every seed
// envelope encodes, decodes back DeepEqual, and reports the right frame
// length prefix.
func TestEnvelopeCodecRoundTrip(t *testing.T) {
	for _, env := range fuzzSeedEnvelopes() {
		b, err := EncodeEnvelope(env)
		if err != nil {
			t.Fatalf("encode %+v: %v", env, err)
		}
		got, err := DecodeEnvelope(b)
		if err != nil {
			t.Fatalf("decode %+v: %v", env, err)
		}
		if !reflect.DeepEqual(normalizeEnvelope(env), normalizeEnvelope(got)) {
			t.Fatalf("round trip\n sent %+v\n got  %+v", env, got)
		}
	}
}

// normalizeEnvelope maps nil and empty slices/maps to a canonical form:
// JSON does not distinguish them, and the protocols do not either.
func normalizeEnvelope(env Envelope) Envelope {
	switch p := env.Payload.(type) {
	case cFindOKMsg:
		if len(p.Reps) == 0 {
			p.Reps = nil
		}
		if len(p.Alts) == 0 {
			p.Alts = nil
		}
		env.Payload = p
	case cFetchOKMsg:
		for i, v := range p.Vals {
			if len(v) == 0 {
				p.Vals[i] = nil
			}
		}
		env.Payload = p
	}
	return env
}

// TestEnvelopeCodecRejects pins the codec's error paths: malformed frames
// return errors (and never panic, which the fuzz target enforces at
// scale).
func TestEnvelopeCodecRejects(t *testing.T) {
	valid, err := EncodeEnvelope(Envelope{Type: MsgChordFind, From: 1, To: 2, MsgID: 3, Payload: cFindMsg{Key: 9}})
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty":           {},
		"short prefix":    valid[:3],
		"truncated body":  valid[:len(valid)-4],
		"length mismatch": append([]byte{0xFF, 0xFF, 0xFF, 0xFF}, valid[4:]...),
		"bad version":     append([]byte{valid[0], valid[1], valid[2], valid[3], 99}, valid[5:]...),
		"trailing bytes": func() []byte {
			b := append(append([]byte(nil), valid...), 0xAA)
			return b
		}(),
		"garbage":  {0, 0, 0, 6, 1, 0, 0, 0, 0, 0},
		"all ones": {255, 255, 255, 255, 255, 255, 255, 255},
	}
	for name, b := range cases {
		if _, err := DecodeEnvelope(b); err == nil {
			t.Errorf("%s: decode accepted a malformed frame", name)
		}
	}

	if _, err := EncodeEnvelope(Envelope{Type: "x", Payload: struct{ X int }{1}}); err == nil {
		t.Error("encode accepted an unregistered payload type")
	}
	type floatMsg struct{ X float64 }
	RegisterPayload("t_float", floatMsg{})
	if _, err := EncodeEnvelope(Envelope{Type: "x", Payload: floatMsg{X: math.Inf(1)}}); err == nil {
		t.Error("encode accepted a non-JSON-encodable payload")
	}
	big := cStoreMsg{Key: "k", Val: make([]byte, MaxFrame)}
	if _, err := EncodeEnvelope(Envelope{Type: MsgChordStore, Payload: big}); err == nil {
		t.Error("encode accepted a frame over MaxFrame")
	}
	oversized := make([]byte, MaxFrame+1)
	if _, err := DecodeEnvelope(oversized); err == nil {
		t.Error("decode accepted a frame over MaxFrame")
	}
}

// FuzzEnvelopeCodec is the robustness gate the CI fuzz-replay step runs:
// DecodeEnvelope must never panic, and any frame it accepts must
// re-encode and decode back to the same envelope.
func FuzzEnvelopeCodec(f *testing.F) {
	for _, env := range fuzzSeedEnvelopes() {
		if b, err := EncodeEnvelope(env); err == nil {
			f.Add(b)
		}
	}
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 1, 2, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		env, err := DecodeEnvelope(data)
		if err != nil {
			return // malformed input rejected: the contract held
		}
		b, err := EncodeEnvelope(env)
		if err != nil {
			t.Fatalf("accepted frame failed to re-encode: %v (env %+v)", err, env)
		}
		again, err := DecodeEnvelope(b)
		if err != nil {
			t.Fatalf("re-encoded frame failed to decode: %v", err)
		}
		if env.Type != again.Type || env.From != again.From || env.To != again.To ||
			env.MsgID != again.MsgID || env.Resp != again.Resp {
			t.Fatalf("header round trip\n first  %+v\n second %+v", env, again)
		}
		if !reflect.DeepEqual(env.Payload, again.Payload) {
			t.Fatalf("payload round trip\n first  %#v\n second %#v", env.Payload, again.Payload)
		}
	})
}
