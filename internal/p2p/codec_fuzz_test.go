package p2p

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
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
		{Type: "m_rings", From: 9, To: 10, MsgID: 15,
			Payload: registeredPayload("m_rings", func(v reflect.Value) { v.FieldByName("D").SetFloat(12.5) })},
		{Type: "m_rings_ok", From: 10, To: 9, MsgID: 16, Resp: true,
			Payload: registeredPayload("m_rings_ok", func(v reflect.Value) {
				v.FieldByName("IDs").Set(reflect.ValueOf([]int{3, 11, 42}))
			})},
		{Type: MsgFind, From: 0, To: 1, MsgID: 17, Payload: findMsg{SID: 4, From: 0, Round: 2}},
	}
}

// floatMsg is a test payload carrying one float, registered at init so the
// registry (and the seed corpus below) does not depend on test order.
type floatMsg struct{ X float64 }

func init() { RegisterPayload("t_float", floatMsg{}) }

// registeredPayload builds a payload of the type another package registered
// under name and lets set fill it in: the seeds' Meridian ring request and
// reply are internal/meridian's types, which this package cannot name
// (payloads_test.go links the package in).
func registeredPayload(name string, set func(reflect.Value)) any {
	c := payloadRegistry.byName[name]
	if c == nil {
		panic(fmt.Sprintf("payload %q is not registered", name))
	}
	v := reflect.New(c.typ).Elem()
	set(v)
	return v.Interface()
}

// TestEnvelopeCodecRoundTrip pins the codec's happy path: every seed
// envelope encodes, decodes back DeepEqual — nil and empty slices kept
// apart — and reports the right frame length prefix.
func TestEnvelopeCodecRoundTrip(t *testing.T) {
	for _, env := range fuzzSeedEnvelopes() {
		b, err := EncodeEnvelope(env)
		if err != nil {
			t.Fatalf("encode %+v: %v", env, err)
		}
		if n := binary.BigEndian.Uint32(b); int(n) != len(b)-4 {
			t.Fatalf("%s: length prefix %d for a %d-byte frame", env.Type, n, len(b))
		}
		got, err := DecodeEnvelope(b)
		if err != nil {
			t.Fatalf("decode %+v: %v", env, err)
		}
		if !reflect.DeepEqual(env, got) {
			t.Fatalf("round trip\n sent %+v\n got  %+v", env, got)
		}
	}
}

// TestEnvelopeCodecRejects pins the codec's error paths: malformed frames
// return errors (and never panic, which the fuzz target enforces at
// scale).
func TestEnvelopeCodecRejects(t *testing.T) {
	valid, err := EncodeEnvelope(Envelope{Type: MsgChordFind, From: 1, To: 2, MsgID: 3, Payload: cFindMsg{Key: 9}})
	if err != nil {
		t.Fatal(err)
	}
	// The body of a payload is the frame's tail: a body-level edit keeps
	// the length prefix right and still has to be refused.
	withBody := func(name string, body ...byte) []byte { return payloadFrame(name, body) }
	cases := map[string][]byte{
		"empty":           {},
		"short prefix":    valid[:3],
		"truncated body":  valid[:len(valid)-4],
		"length mismatch": append([]byte{0xFF, 0xFF, 0xFF, 0xFF}, valid[4:]...),
		"bad version":     append([]byte{valid[0], valid[1], valid[2], valid[3], 99}, valid[5:]...),
		"trailing bytes": func() []byte {
			b := append(append([]byte(nil), valid...), 0xAA)
			binary.BigEndian.PutUint32(b, uint32(len(b)-4))
			return b
		}(),
		"truncated header":    {0, 0, 0, 6, codecVersion, 0, 0, 0, 0, 0},
		"all ones":            {255, 255, 255, 255, 255, 255, 255, 255},
		"unknown payload":     withBody("no_such_payload"),
		"empty body":          withBody("c_find"),
		"non-minimal varint":  withBody("c_find", 0x80, 0x00),
		"varint overflow":     withBody("c_find", 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x02),
		"bool byte 2":         withBody("c_find_ok", 2, 0, 0, 0, 0),
		"slice past the end":  withBody("c_find_ok", 0, 0, 10, 2),
		"string past the end": withBody("c_fetch", 5, 'a'),
		"map keys out of order": withBody("c_handoff", 3,
			1, 'b', 0,
			1, 'a', 0),
		"duplicate map key": withBody("c_handoff", 3,
			1, 'a', 0,
			1, 'a', 0),
	}
	for name, b := range cases {
		if _, err := DecodeEnvelope(b); err == nil {
			t.Errorf("%s: decode accepted a malformed frame", name)
		}
	}
	// The same shapes, well formed, decode: the rejections above are the
	// edits, not the frames.
	for name, b := range map[string][]byte{
		"c_find_ok":   withBody("c_find_ok", 1, 2, 3, 2, 4, 0, 0),
		"c_fetch":     withBody("c_fetch", 1, 'a'),
		"c_handoff":   withBody("c_handoff", 3, 1, 'a', 0, 1, 'b', 0),
		"nil handoff": withBody("c_handoff", 0),
	} {
		if _, err := DecodeEnvelope(b); err != nil {
			t.Errorf("%s: well-formed body refused: %v", name, err)
		}
	}

	if _, err := EncodeEnvelope(Envelope{Type: "x", Payload: struct{ X int }{1}}); err == nil {
		t.Error("encode accepted an unregistered payload type")
	}
	// Floats cross as their IEEE bits: NaN and both infinities included.
	for _, x := range []float64{math.Inf(1), math.Inf(-1), math.NaN(), math.Copysign(0, -1)} {
		got, err := roundTripEnvelope(Envelope{Type: "x", Payload: floatMsg{X: x}})
		if err != nil {
			t.Errorf("%v: %v", x, err)
			continue
		}
		if y := got.Payload.(floatMsg).X; math.Float64bits(y) != math.Float64bits(x) {
			t.Errorf("float %v came back as %v", x, y)
		}
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

// TestRegisterPayloadRefuses pins the kinds the codec cannot carry: each
// registration fails with an error naming the payload, and leaves the
// registry as it was.
func TestRegisterPayloadRefuses(t *testing.T) {
	type recursive struct{ Kids []recursive }
	before := RegisteredPayloads()
	for name, sample := range map[string]any{
		"t_iface":     struct{ X any }{},
		"t_func":      struct{ F func() }{},
		"t_float32":   struct{ X float32 }{},
		"t_complex":   struct{ X complex128 }{},
		"t_chan":      struct{ C chan int }{},
		"t_recursive": recursive{},
		"t_intkey":    struct{ M map[int]int }{},
		"t_floatkey":  struct{ M map[float64]int }{},
		"t_empty":     struct{ S []struct{} }{},
		"t_array":     struct{ A [2]int }{},
		"t_ptrfield":  struct{ P *int }{},
		"t_ptrptr":    new(*struct{ X int }),
	} {
		if err := registerPayload(name, sample); err == nil {
			t.Errorf("%s: registered %T", name, sample)
		}
	}
	if after := RegisteredPayloads(); !reflect.DeepEqual(before, after) {
		t.Errorf("refused registrations changed the registry: %v → %v", before, after)
	}
}

// TestPointerPayloadNeverNil holds a payload registered with a pointer
// sample (vivaldi's v_snap) to a non-nil pointer on both ends: a typed nil
// is refused on encode, and no body decodes to one — the body carries no
// nil marker, so the one-byte body 0 is a truncated element, not a nil.
func TestPointerPayloadNeverNil(t *testing.T) {
	var ptrs []*payloadCodec
	for _, name := range RegisteredPayloads() {
		if c := payloadRegistry.byName[name]; c.ptr {
			ptrs = append(ptrs, c)
		}
	}
	if len(ptrs) == 0 {
		t.Fatal("no payload registered with a pointer sample")
	}
	for _, c := range ptrs {
		nilPayload := reflect.Zero(c.typ).Interface()
		if _, err := EncodeEnvelope(Envelope{Type: c.name, Payload: nilPayload}); err == nil {
			t.Errorf("%s: encode accepted a nil %v", c.name, c.typ)
		}
		if _, err := DecodeEnvelope(payloadFrame(c.name, []byte{0})); err == nil {
			t.Errorf("%s: the body 0 decoded", c.name)
		}
		zero, err := roundTripEnvelope(Envelope{Type: c.name, Payload: reflect.New(c.plan.typ).Interface()})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if reflect.ValueOf(zero.Payload).IsNil() {
			t.Errorf("%s: a zero element came back as a nil %v", c.name, c.typ)
		}
	}
}

func roundTripEnvelope(env Envelope) (Envelope, error) {
	b, err := EncodeEnvelope(env)
	if err != nil {
		return Envelope{}, err
	}
	return DecodeEnvelope(b)
}

// payloadFrame builds a request frame (From 1, To 2, MsgID 3) whose type
// tag and payload name are name and whose body is body, taken as is.
func payloadFrame(name string, body []byte) []byte {
	b := make([]byte, 4, 4+frameHeader+4+2*len(name)+len(body))
	b = append(b, codecVersion, flagPayload)
	b = binary.BigEndian.AppendUint64(b, 3)
	b = binary.BigEndian.AppendUint64(b, 1)
	b = binary.BigEndian.AppendUint64(b, 2)
	for i := 0; i < 2; i++ {
		b = appendU16(b, uint16(len(name)))
		b = append(b, name...)
	}
	b = append(b, body...)
	binary.BigEndian.PutUint32(b, uint32(len(b)-4))
	return b
}

// splitPayload returns a frame's payload name and body (everything after
// the name); ok is false when the header does not parse that far.
func splitPayload(frame []byte) (name string, body []byte, ok bool) {
	off, start := 4+frameHeader, 0
	for i := 0; i < 2; i++ { // the type tag, then the payload name
		if len(frame) < off+2 {
			return "", nil, false
		}
		start = off + 2
		off = start + int(binary.BigEndian.Uint16(frame[off:]))
	}
	if off > len(frame) {
		return "", nil, false
	}
	return string(frame[start:off]), frame[off:], true
}

// checkExactRoundTrip is the codec's fuzz oracle: a frame DecodeEnvelope
// accepts re-encodes to exactly its own bytes (decoding is canonical), and
// its payload has the type registered under its name and is never a nil
// pointer. Byte equality holds NaN payloads to their bits, where DeepEqual
// would call them unequal.
func checkExactRoundTrip(t *testing.T, frame []byte) {
	env, err := DecodeEnvelope(frame)
	if err != nil {
		return // malformed input rejected: the contract held
	}
	b, err := EncodeEnvelope(env)
	if err != nil {
		t.Fatalf("accepted frame failed to re-encode: %v (env %+v)", err, env)
	}
	if !bytes.Equal(b, frame) {
		t.Fatalf("round trip changed the frame\n in  %q\n out %q", frame, b)
	}
	if env.Payload != nil {
		name, _, _ := splitPayload(frame)
		if c := payloadRegistry.byName[name]; c == nil || c.typ != reflect.TypeOf(env.Payload) {
			t.Fatalf("payload %q decoded to a %T", name, env.Payload)
		}
		if v := reflect.ValueOf(env.Payload); v.Kind() == reflect.Pointer && v.IsNil() {
			t.Fatalf("payload %q decoded to a nil %T", name, env.Payload)
		}
	}
}

// FuzzEnvelopeCodec is the robustness gate the CI fuzz-replay step runs:
// DecodeEnvelope must never panic, and any frame it accepts must re-encode
// to the same bytes. The checked-in corpus keeps the version 1 (JSON body)
// frames the target was first fuzzed with — refused by version now, and
// still never a panic — beside the version 2 seeds (v2-*).
func FuzzEnvelopeCodec(f *testing.F) {
	for _, env := range fuzzSeedEnvelopes() {
		if b, err := EncodeEnvelope(env); err == nil {
			f.Add(b)
		}
	}
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 1, 2, 3})
	f.Fuzz(checkExactRoundTrip)
}

// FuzzPayloadRoundTrip fuzzes payload bodies under every registered
// payload: the input's payload body (the whole input when it does not
// parse as a frame header) is framed once per name in
// RegisteredPayloads() (with the length prefix set right, so mutations
// reach the body decoder instead of dying at the length check), and each
// frame must decode to an exact round trip or be refused. The
// checked-in corpus holds one populated frame per registered payload
// (TestPayloadSeedCorpus keeps it complete).
func FuzzPayloadRoundTrip(f *testing.F) {
	names := RegisteredPayloads()
	f.Fuzz(func(t *testing.T, frame []byte) {
		_, body, ok := splitPayload(frame)
		if !ok {
			body = frame
		}
		for _, name := range names {
			checkExactRoundTrip(t, payloadFrame(name, body))
		}
	})
}

// seedCorpus is what the checked-in fuzz corpora hold at version 2: one
// frame per registered payload (its value built by fill) for
// FuzzPayloadRoundTrip, and the seed envelopes for FuzzEnvelopeCodec.
func seedCorpus(t *testing.T) map[string][]byte {
	files := map[string][]byte{}
	for _, name := range RegisteredPayloads() {
		v := reflect.New(payloadRegistry.byName[name].typ).Elem()
		fill(v, new(int))
		b, err := EncodeEnvelope(Envelope{Type: name, From: 1, To: 2, MsgID: 3, Payload: v.Interface()})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		files[filepath.Join("FuzzPayloadRoundTrip", name)] = b
	}
	for i, env := range fuzzSeedEnvelopes() {
		b, err := EncodeEnvelope(env)
		if err != nil {
			t.Fatalf("seed %d: %v", i, err)
		}
		files[filepath.Join("FuzzEnvelopeCodec", fmt.Sprintf("v2-%02d-%s", i, env.Type))] = b
	}
	return files
}

// TestPayloadSeedCorpus checks the version 2 fuzz seeds are checked in
// and current: one FuzzPayloadRoundTrip frame per registered payload, so
// a newly registered payload is fuzzed from a populated value. Regenerate
// after a deliberate payload or format change:
//
//	go test ./internal/p2p -run TestPayloadSeedCorpus -update
func TestPayloadSeedCorpus(t *testing.T) {
	for file, frame := range seedCorpus(t) {
		path := filepath.Join("testdata", "fuzz", file)
		want := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", frame)
		if *updateGolden {
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(want), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Errorf("%s: %v (regenerate with -update)", path, err)
			continue
		}
		if string(got) != want {
			t.Errorf("%s is stale (regenerate with -update)", path)
		}
	}
}

// fill populates v and everything it reaches: two-element slices,
// one-entry maps, negative ints (NoNode is −1), non-integral floats and
// non-empty strings, every leaf a different value (n counts them) so a
// codec that swaps or drops a field shows. Unexported fields and
// interfaces stay zero: the codec carries neither.
func fill(v reflect.Value, n *int) {
	*n++
	switch v.Kind() {
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(-int64(*n))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(uint64(*n))
	case reflect.Float32, reflect.Float64:
		v.SetFloat(float64(*n) + 0.25)
	case reflect.String:
		v.SetString(fmt.Sprint("s", *n))
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Slice:
		s := reflect.MakeSlice(v.Type(), 2, 2)
		for i := 0; i < s.Len(); i++ {
			fill(s.Index(i), n)
		}
		v.Set(s)
	case reflect.Map:
		m := reflect.MakeMap(v.Type())
		k, e := reflect.New(v.Type().Key()).Elem(), reflect.New(v.Type().Elem()).Elem()
		fill(k, n)
		fill(e, n)
		m.SetMapIndex(k, e)
		v.Set(m)
	case reflect.Pointer:
		p := reflect.New(v.Type().Elem())
		fill(p.Elem(), n)
		v.Set(p)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				fill(v.Field(i), n)
			}
		}
	}
}
