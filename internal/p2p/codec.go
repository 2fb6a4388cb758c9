// The wire codec of the UDP transport: a length-prefixed binary frame
// around each Envelope, with the protocol-specific payload carried as a
// registered type name plus a compact binary body. The simulator and the
// loopback transport pass Envelope values in memory and never touch this;
// the UDP transport encodes every send and decodes every datagram.
//
// A payload body is a walk of the payload's exported fields in declaration
// order, compiled once per type by RegisterPayload:
//   - bool: one byte, 0 or 1;
//   - signed integers: zig-zag uvarints; unsigned integers: uvarints;
//   - float64: 8 big-endian IEEE 754 bytes, so NaN and ±Inf cross as
//     themselves;
//   - string: a uvarint length, then the bytes;
//   - slice ([]byte included) and map: a uvarint of the length plus one
//     (0 is nil, so nil and empty stay distinct), then the elements; map
//     keys are strings, and entries go key first, keys in ascending order;
//   - struct: its exported fields, inline.
//
// A payload registered with a pointer sample has its element's body, with
// no nil marker: it always decodes to a fresh non-nil pointer, and a nil
// one is refused on encode. Pointers anywhere else inside a payload, and
// arrays, are refused at registration.
//
// Decoding is canonical: it accepts only what the encoder writes (minimal
// varints, 0/1 bool bytes, strictly ascending map keys, no trailing bytes),
// so an accepted frame re-encodes to exactly its own bytes.
//
// Frames must survive a hostile network: every decode error is an error
// value, never a panic, and every count a frame claims is checked against
// the bytes left before anything is allocated for it — the fuzz tests
// (codec_fuzz_test.go) hold that line over truncated, oversized, and
// garbage frames.

package p2p

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"reflect"
	"slices"
	"sort"
	"strings"
	"sync"
)

// MaxFrame is the largest encoded frame the codec accepts, on both ends:
// encoding a bigger envelope fails, and a claimed length beyond it is
// rejected before any allocation. It comfortably exceeds every protocol
// message (the largest, a chord handoff, carries a node's key slice) while
// staying under the conventional 64 KiB UDP datagram ceiling.
const MaxFrame = 60 << 10

// codecVersion is the frame format version; decoders reject others.
// Version 1 carried JSON payload bodies.
const codecVersion = 2

// Frame flag bits.
const (
	flagResp    = 1 << 0 // Envelope.Resp
	flagPayload = 1 << 1 // a payload block follows the type tag
)

// frameHeader is the fixed-width prefix after the length word: version,
// flags, MsgID, From, To.
const frameHeader = 1 + 1 + 8 + 8 + 8

// payloadCodec is one registered payload type: its wire name and the
// compiled plan of its body.
type payloadCodec struct {
	name string
	typ  reflect.Type
	// ptr marks a pointer sample: plan is then the element's, and every
	// decode allocates a fresh element, so the payload is never nil.
	ptr  bool
	plan *codecPlan
	// scratch recycles zeroed *typ values to decode a value payload into.
	// The decoded value leaves by being boxed into the envelope's interface
	// (the one allocation a value payload costs beyond its own slices), and
	// the scratch goes back zeroed.
	scratch sync.Pool
}

// payloadRegistry maps wire names to payload codecs and back. Entries are
// registered at init time by the protocol packages; the maps are
// read-mostly and guarded for the rare late registration (tests).
var payloadRegistry = struct {
	sync.RWMutex
	byName map[string]*payloadCodec
	byType map[reflect.Type]*payloadCodec
}{
	byName: make(map[string]*payloadCodec),
	byType: make(map[reflect.Type]*payloadCodec),
}

// RegisterPayload registers a payload type for the wire codec under a
// stable name and compiles its body encoding. sample fixes the dynamic
// type: decode reproduces exactly it (a pointer sample decodes to a
// pointer, a value sample to a value), so handler type assertions behave
// identically on the simulated and the UDP transport. Registering two
// types under one name, or one type under two names, panics — payload
// identity must be unambiguous on the wire — and so does a type the codec
// cannot carry (interfaces, channels, functions, complex numbers, float32,
// arrays, pointers below the top level, recursive types, map keys other
// than strings).
func RegisterPayload(name string, sample any) {
	if err := registerPayload(name, sample); err != nil {
		panic(err)
	}
}

func registerPayload(name string, sample any) error {
	if name == "" || sample == nil {
		return errors.New("p2p: RegisterPayload with empty name or nil sample")
	}
	t := reflect.TypeOf(sample)
	payloadRegistry.Lock()
	defer payloadRegistry.Unlock()
	if prev, ok := payloadRegistry.byName[name]; ok {
		if prev.typ != t {
			return fmt.Errorf("p2p: payload name %q registered for both %v and %v", name, prev.typ, t)
		}
		return nil
	}
	if prev, ok := payloadRegistry.byType[t]; ok {
		return fmt.Errorf("p2p: payload type %v registered as both %q and %q", t, prev.name, name)
	}
	body, ptr := t, t.Kind() == reflect.Pointer
	if ptr {
		body = t.Elem()
	}
	plan, err := compilePlan(body, map[reflect.Type]bool{})
	if err != nil {
		return fmt.Errorf("p2p: payload %q: %w", name, err)
	}
	c := &payloadCodec{name: name, typ: t, ptr: ptr, plan: plan}
	c.scratch.New = func() any { return reflect.New(body).Interface() }
	payloadRegistry.byName[name], payloadRegistry.byType[t] = c, c
	return nil
}

// RegisteredPayloads returns the sorted wire names of all registered
// payload types (tests and diagnostics).
func RegisteredPayloads() []string {
	payloadRegistry.RLock()
	defer payloadRegistry.RUnlock()
	out := make([]string, 0, len(payloadRegistry.byName))
	for name := range payloadRegistry.byName {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

func init() {
	// The chord payloads (chord.go).
	RegisterPayload("c_find", cFindMsg{})
	RegisterPayload("c_find_ok", cFindOKMsg{})
	RegisterPayload("c_state_ok", cStateOKMsg{})
	RegisterPayload("c_store", cStoreMsg{})
	RegisterPayload("c_fetch", cFetchMsg{})
	RegisterPayload("c_fetch_ok", cFetchOKMsg{})
	RegisterPayload("c_handoff", cHandoffMsg{})
	// The expanding-search payloads (expand.go).
	RegisterPayload("x_find", findMsg{})
	RegisterPayload("x_found", foundMsg{})
}

// codecPlan is the compiled body encoding of one type.
type codecPlan struct {
	kind reflect.Kind
	typ  reflect.Type
	// min is the fewest bytes a value encodes to: a claimed element count
	// is checked against the bytes left at this rate before allocating.
	min    int
	elem   *codecPlan  // slice element; map value
	key    *codecPlan  // map key (a string)
	fields []planField // struct: the exported fields, in declaration order
}

type planField struct {
	index int
	plan  *codecPlan
}

// compilePlan compiles t's encoding; open holds the types being compiled
// on the current path, so a recursive type is refused rather than looped.
func compilePlan(t reflect.Type, open map[reflect.Type]bool) (*codecPlan, error) {
	if open[t] {
		return nil, fmt.Errorf("recursive type %v", t)
	}
	open[t] = true
	defer delete(open, t)
	p := &codecPlan{kind: t.Kind(), typ: t, min: 1}
	var err error
	switch p.kind {
	case reflect.Bool, reflect.String,
		reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
	case reflect.Float64:
		p.min = 8
	case reflect.Slice:
		if p.elem, err = compilePlan(t.Elem(), open); err == nil && p.elem.min == 0 {
			err = fmt.Errorf("%v: elements encode to no bytes", t)
		}
	case reflect.Map:
		if t.Key().Kind() != reflect.String {
			return nil, fmt.Errorf("%v: map keys must be strings", t)
		}
		if p.key, err = compilePlan(t.Key(), open); err == nil {
			p.elem, err = compilePlan(t.Elem(), open)
		}
	case reflect.Struct:
		p.min = 0
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			if !f.IsExported() {
				continue
			}
			fp, err := compilePlan(f.Type, open)
			if err != nil {
				return nil, fmt.Errorf("field %s: %w", f.Name, err)
			}
			p.fields = append(p.fields, planField{index: i, plan: fp})
			p.min += fp.min
		}
	default:
		return nil, fmt.Errorf("unsupported kind %v (%v)", p.kind, t)
	}
	if err != nil {
		return nil, err
	}
	return p, nil
}

// compareKeys orders two string map keys.
func compareKeys(a, b reflect.Value) int { return strings.Compare(a.String(), b.String()) }

// appendValue appends the body encoding of v under p.
func appendValue(b []byte, p *codecPlan, v reflect.Value) []byte {
	switch p.kind {
	case reflect.Bool:
		if v.Bool() {
			return append(b, 1)
		}
		return append(b, 0)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		x := v.Int()
		return binary.AppendUvarint(b, uint64(x<<1)^uint64(x>>63))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		return binary.AppendUvarint(b, v.Uint())
	case reflect.Float64:
		return binary.BigEndian.AppendUint64(b, math.Float64bits(v.Float()))
	case reflect.String:
		s := v.String()
		return append(binary.AppendUvarint(b, uint64(len(s))), s...)
	case reflect.Slice:
		if v.IsNil() {
			return append(b, 0)
		}
		n := v.Len()
		b = binary.AppendUvarint(b, uint64(n)+1)
		if p.elem.kind == reflect.Uint8 {
			return append(b, v.Bytes()...)
		}
		for i := 0; i < n; i++ {
			b = appendValue(b, p.elem, v.Index(i))
		}
	case reflect.Map:
		if v.IsNil() {
			return append(b, 0)
		}
		b = binary.AppendUvarint(b, uint64(v.Len())+1)
		keys := v.MapKeys()
		slices.SortFunc(keys, compareKeys)
		for _, k := range keys {
			b = appendValue(b, p.key, k)
			b = appendValue(b, p.elem, v.MapIndex(k))
		}
	case reflect.Struct:
		for _, f := range p.fields {
			b = appendValue(b, f.plan, v.Field(f.index))
		}
	}
	return b
}

// decode decodes one payload of c's type from the rest of r's frame.
func (c *payloadCodec) decode(r *frameReader) any {
	if c.ptr {
		p := reflect.New(c.plan.typ)
		if r.value(c.plan, p.Elem()); r.err != nil {
			return nil
		}
		return p.Interface()
	}
	p := c.scratch.Get()
	v := reflect.ValueOf(p).Elem()
	r.value(c.plan, v)
	var out any
	if r.err == nil {
		out = v.Interface()
	}
	v.SetZero()
	c.scratch.Put(p)
	return out
}

// appendU16 appends a big-endian uint16.
func appendU16(b []byte, v uint16) []byte { return binary.BigEndian.AppendUint16(b, v) }

// EncodeEnvelope encodes env as one wire frame: a u32 length prefix
// (counting everything after itself), the fixed header, the type tag, and
// — when env.Payload is non-nil — the payload's registered name and binary
// body, which runs to the end of the frame. It fails on unregistered
// payload types, nil pointer payloads and frames over MaxFrame.
func EncodeEnvelope(env Envelope) ([]byte, error) {
	return appendEnvelope(make([]byte, 0, 4+frameHeader+2+len(env.Type)+64), env)
}

// appendEnvelope appends env's frame to b (the UDP transport encodes into
// one reused buffer). On error b comes back as it was.
func appendEnvelope(b []byte, env Envelope) ([]byte, error) {
	if len(env.Type) > 0xFFFF {
		return b, fmt.Errorf("p2p: message type %q too long", env.Type[:32])
	}
	var flags byte
	if env.Resp {
		flags |= flagResp
	}
	var c *payloadCodec
	var pv reflect.Value
	if env.Payload != nil {
		payloadRegistry.RLock()
		c = payloadRegistry.byType[reflect.TypeOf(env.Payload)]
		payloadRegistry.RUnlock()
		if c == nil {
			return b, fmt.Errorf("p2p: payload type %T not registered with RegisterPayload", env.Payload)
		}
		if pv = reflect.ValueOf(env.Payload); c.ptr {
			if pv.IsNil() {
				return b, fmt.Errorf("p2p: nil %T payload", env.Payload)
			}
			pv = pv.Elem()
		}
		flags |= flagPayload
	}
	start := len(b)
	b = append(b, 0, 0, 0, 0, codecVersion, flags)
	b = binary.BigEndian.AppendUint64(b, env.MsgID)
	b = binary.BigEndian.AppendUint64(b, uint64(int64(env.From)))
	b = binary.BigEndian.AppendUint64(b, uint64(int64(env.To)))
	b = appendU16(b, uint16(len(env.Type)))
	b = append(b, env.Type...)
	if c != nil {
		b = appendU16(b, uint16(len(c.name)))
		b = append(b, c.name...)
		b = appendValue(b, c.plan, pv)
	}
	if n := len(b) - start; n > MaxFrame {
		return b[:start], fmt.Errorf("p2p: frame %d bytes exceeds cap %d", n, MaxFrame)
	}
	binary.BigEndian.PutUint32(b[start:], uint32(len(b)-start-4))
	return b, nil
}

// frameReader walks a frame with bounds checks; any overrun or malformed
// field sets err and further reads return zero values.
type frameReader struct {
	b   []byte
	off int
	err error
}

func (r *frameReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
	}
}

func (r *frameReader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || r.off+n > len(r.b) {
		r.fail("frame truncated at offset %d (want %d of %d bytes)", r.off, n, len(r.b))
		return nil
	}
	out := r.b[r.off : r.off+n]
	r.off += n
	return out
}

func (r *frameReader) u8() byte {
	if b := r.take(1); b != nil {
		return b[0]
	}
	return 0
}

func (r *frameReader) u16() uint16 {
	if b := r.take(2); b != nil {
		return binary.BigEndian.Uint16(b)
	}
	return 0
}

func (r *frameReader) u32() uint32 {
	if b := r.take(4); b != nil {
		return binary.BigEndian.Uint32(b)
	}
	return 0
}

func (r *frameReader) u64() uint64 {
	if b := r.take(8); b != nil {
		return binary.BigEndian.Uint64(b)
	}
	return 0
}

// uvarint reads a minimally encoded uvarint.
func (r *frameReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	x, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 || (n > 1 && r.b[r.off+n-1] == 0) {
		r.fail("bad varint at offset %d", r.off)
		return 0
	}
	r.off += n
	return x
}

// bool reads a byte that must be 0 or 1.
func (r *frameReader) bool() bool {
	off, b := r.off, r.u8()
	if b > 1 {
		r.fail("bool byte %d at offset %d", b, off)
	}
	return b == 1
}

// count checks a claimed element count against the bytes left: n
// elements of at least min bytes each must fit, or nothing is allocated
// for them.
func (r *frameReader) count(n uint64, min int) int {
	if left := uint64(len(r.b) - r.off); n > left/uint64(min) {
		r.fail("%d elements claimed at offset %d, %d bytes left", n, r.off, left)
		return 0
	}
	return int(n)
}

// value decodes one value under p into v, which is settable and zero.
func (r *frameReader) value(p *codecPlan, v reflect.Value) {
	if r.err != nil {
		return
	}
	switch p.kind {
	case reflect.Bool:
		v.SetBool(r.bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		u := r.uvarint()
		x := int64(u>>1) ^ -int64(u&1)
		if v.OverflowInt(x) {
			r.fail("%d overflows %v", x, p.typ)
			return
		}
		v.SetInt(x)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		u := r.uvarint()
		if v.OverflowUint(u) {
			r.fail("%d overflows %v", u, p.typ)
			return
		}
		v.SetUint(u)
	case reflect.Float64:
		v.SetFloat(math.Float64frombits(r.u64()))
	case reflect.String:
		v.SetString(string(r.take(r.count(r.uvarint(), 1))))
	case reflect.Slice:
		c := r.uvarint()
		if c == 0 {
			return // nil
		}
		n := r.count(c-1, p.elem.min)
		switch {
		case r.err != nil:
		case p.elem.kind == reflect.Uint8:
			v.SetBytes(slices.Clone(r.take(n)))
		case n == 0:
			v.Set(reflect.MakeSlice(p.typ, 0, 0))
		default:
			v.Grow(n)
			v.SetLen(n)
			for i := 0; i < n; i++ {
				r.value(p.elem, v.Index(i))
			}
		}
	case reflect.Map:
		c := r.uvarint()
		if c == 0 {
			return // nil
		}
		n := r.count(c-1, p.key.min+p.elem.min)
		if r.err != nil {
			return
		}
		m := reflect.MakeMapWithSize(p.typ, n)
		k, e := reflect.New(p.key.typ).Elem(), reflect.New(p.elem.typ).Elem()
		prev := ""
		for i := 0; i < n; i++ {
			k.SetZero()
			e.SetZero()
			r.value(p.key, k)
			r.value(p.elem, e)
			if r.err != nil {
				return
			}
			if i > 0 && k.String() <= prev {
				r.fail("map keys out of order at offset %d", r.off)
				return
			}
			m.SetMapIndex(k, e)
			prev = k.String()
		}
		v.Set(m)
	case reflect.Struct:
		for _, f := range p.fields {
			r.value(f.plan, v.Field(f.index))
		}
	}
}

// DecodeEnvelope decodes one wire frame produced by EncodeEnvelope. Every
// malformed input — truncated, oversized, version-skewed, unknown payload
// name, a body that does not decode to exactly its type, trailing garbage
// — returns an error; none panics. The envelope shares no memory with b
// (strings and byte slices are copies), so the caller may reuse b as soon
// as it returns; TestDecodeEnvelopeKeepsNoInput holds that for every
// registered payload. A type tag equal to a registered payload name
// decodes to the registered string, without an allocation.
func DecodeEnvelope(b []byte) (Envelope, error) {
	var env Envelope
	if len(b) > MaxFrame {
		return env, fmt.Errorf("p2p: frame %d bytes exceeds cap %d", len(b), MaxFrame)
	}
	r := frameReader{b: b}
	if n := r.u32(); r.err == nil && int(n) != len(b)-4 {
		return env, fmt.Errorf("p2p: frame length %d does not match %d body bytes", n, len(b)-4)
	}
	if v := r.u8(); r.err == nil && v != codecVersion {
		return env, fmt.Errorf("p2p: frame version %d (want %d)", v, codecVersion)
	}
	flags := r.u8()
	if r.err == nil && flags&^(flagResp|flagPayload) != 0 {
		return env, fmt.Errorf("p2p: unknown frame flags %#x", flags)
	}
	env.Resp = flags&flagResp != 0
	env.MsgID = r.u64()
	env.From = NodeID(int64(r.u64()))
	env.To = NodeID(int64(r.u64()))
	typ := r.take(int(r.u16()))
	if flags&flagPayload != 0 {
		name := r.take(int(r.u16()))
		if r.err == nil {
			payloadRegistry.RLock()
			c, ok := payloadRegistry.byName[string(name)]
			payloadRegistry.RUnlock()
			if !ok {
				return Envelope{}, fmt.Errorf("p2p: unknown payload type %q", name)
			}
			if env.Payload = c.decode(&r); r.err != nil {
				return Envelope{}, fmt.Errorf("p2p: decode %s payload: %w", c.name, r.err)
			}
		}
	}
	if r.err != nil {
		return Envelope{}, fmt.Errorf("p2p: %w", r.err)
	}
	if r.off != len(b) {
		return Envelope{}, fmt.Errorf("p2p: %d trailing bytes after frame", len(b)-r.off)
	}
	payloadRegistry.RLock()
	c, ok := payloadRegistry.byName[string(typ)]
	payloadRegistry.RUnlock()
	if ok {
		env.Type = c.name
	} else {
		env.Type = string(typ)
	}
	return env, nil
}
