// The wire codec of the UDP transport: a length-prefixed binary frame
// around each Envelope, with the protocol-specific payload carried as a
// registered type name plus a JSON body. The simulator and the loopback
// transport pass Envelope values in memory and never touch this; the UDP
// transport encodes every send and decodes every datagram.
//
// Frames must survive a hostile network: every decode error is an error
// value, never a panic — the fuzz tests (codec_fuzz_test.go) hold that
// line over truncated, oversized, and garbage frames.

package p2p

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"reflect"
	"sort"
	"sync"
)

// MaxFrame is the largest encoded frame the codec accepts, on both ends:
// encoding a bigger envelope fails, and a claimed length beyond it is
// rejected before any allocation. It comfortably exceeds every protocol
// message (the largest, a chord handoff, carries a node's key slice) while
// staying under the conventional 64 KiB UDP datagram ceiling.
const MaxFrame = 60 << 10

// codecVersion is the frame format version; decoders reject others.
const codecVersion = 1

// Frame flag bits.
const (
	flagResp    = 1 << 0 // Envelope.Resp
	flagPayload = 1 << 1 // a payload block follows the type tag
)

// frameHeader is the fixed-width prefix after the length word: version,
// flags, MsgID, From, To.
const frameHeader = 1 + 1 + 8 + 8 + 8

// payloadRegistry maps wire names to payload types and back. Entries are
// registered at init time by the protocol packages; the maps are
// read-mostly and guarded for the rare late registration (tests).
var payloadRegistry = struct {
	sync.RWMutex
	byName map[string]reflect.Type
	byType map[reflect.Type]string
}{
	byName: make(map[string]reflect.Type),
	byType: make(map[reflect.Type]string),
}

// RegisterPayload registers a payload type for the wire codec under a
// stable name. sample fixes the dynamic type: decode reproduces exactly
// it (a pointer sample decodes to a pointer, a value sample to a value),
// so handler type assertions behave identically on the simulated and the
// UDP transport. Registering two types under one name, or one type under
// two names, panics — payload identity must be unambiguous on the wire.
func RegisterPayload(name string, sample any) {
	if name == "" || sample == nil {
		panic("p2p: RegisterPayload with empty name or nil sample")
	}
	t := reflect.TypeOf(sample)
	payloadRegistry.Lock()
	defer payloadRegistry.Unlock()
	if prev, ok := payloadRegistry.byName[name]; ok && prev != t {
		panic(fmt.Sprintf("p2p: payload name %q registered for both %v and %v", name, prev, t))
	}
	if prev, ok := payloadRegistry.byType[t]; ok && prev != name {
		panic(fmt.Sprintf("p2p: payload type %v registered as both %q and %q", t, prev, name))
	}
	payloadRegistry.byName[name] = t
	payloadRegistry.byType[t] = name
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

// appendU16 appends a big-endian uint16.
func appendU16(b []byte, v uint16) []byte { return binary.BigEndian.AppendUint16(b, v) }

// EncodeEnvelope encodes env as one wire frame: a u32 length prefix
// (counting everything after itself), the fixed header, the type tag, and
// — when env.Payload is non-nil — the payload's registered name and JSON
// body. It fails on unregistered payload types, unmarshalable payloads,
// and frames over MaxFrame.
func EncodeEnvelope(env Envelope) ([]byte, error) {
	if len(env.Type) > 0xFFFF {
		return nil, fmt.Errorf("p2p: message type %q too long", env.Type[:32])
	}
	var flags byte
	if env.Resp {
		flags |= flagResp
	}
	b := make([]byte, 4, 4+frameHeader+2+len(env.Type)+64)
	var name string
	var body []byte
	if env.Payload != nil {
		flags |= flagPayload
		payloadRegistry.RLock()
		name = payloadRegistry.byType[reflect.TypeOf(env.Payload)]
		payloadRegistry.RUnlock()
		if name == "" {
			return nil, fmt.Errorf("p2p: payload type %T not registered with RegisterPayload", env.Payload)
		}
		var err error
		if body, err = json.Marshal(env.Payload); err != nil {
			return nil, fmt.Errorf("p2p: encode %s payload: %w", name, err)
		}
	}
	b = append(b, codecVersion, flags)
	b = binary.BigEndian.AppendUint64(b, env.MsgID)
	b = binary.BigEndian.AppendUint64(b, uint64(int64(env.From)))
	b = binary.BigEndian.AppendUint64(b, uint64(int64(env.To)))
	b = appendU16(b, uint16(len(env.Type)))
	b = append(b, env.Type...)
	if flags&flagPayload != 0 {
		b = appendU16(b, uint16(len(name)))
		b = append(b, name...)
		if len(body) > MaxFrame {
			return nil, fmt.Errorf("p2p: %s payload body %d bytes exceeds frame cap", name, len(body))
		}
		b = binary.BigEndian.AppendUint32(b, uint32(len(body)))
		b = append(b, body...)
	}
	if len(b) > MaxFrame {
		return nil, fmt.Errorf("p2p: frame %d bytes exceeds cap %d", len(b), MaxFrame)
	}
	binary.BigEndian.PutUint32(b[:4], uint32(len(b)-4))
	return b, nil
}

// frameReader walks a frame with bounds checks; any overrun sets err and
// further reads return zero values.
type frameReader struct {
	b   []byte
	off int
	err error
}

func (r *frameReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("p2p: "+format, args...)
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

// DecodeEnvelope decodes one wire frame produced by EncodeEnvelope. Every
// malformed input — truncated, oversized, version-skewed, unknown payload
// name, bad JSON, trailing garbage — returns an error; none panics. The
// envelope shares no memory with b (strings are converted, the payload is
// a fresh JSON decode), so the caller may reuse b as soon as it returns;
// TestDecodeEnvelopeKeepsNoInput holds that for every registered payload.
func DecodeEnvelope(b []byte) (Envelope, error) {
	var env Envelope
	if len(b) > MaxFrame {
		return env, fmt.Errorf("p2p: frame %d bytes exceeds cap %d", len(b), MaxFrame)
	}
	r := &frameReader{b: b}
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
	env.Type = string(r.take(int(r.u16())))
	if flags&flagPayload != 0 {
		name := string(r.take(int(r.u16())))
		body := r.take(int(r.u32()))
		if r.err == nil {
			payloadRegistry.RLock()
			t, ok := payloadRegistry.byName[name]
			payloadRegistry.RUnlock()
			if !ok {
				return env, fmt.Errorf("p2p: unknown payload type %q", name)
			}
			ptr := t
			if ptr.Kind() == reflect.Pointer {
				ptr = ptr.Elem()
			}
			v := reflect.New(ptr)
			if err := json.Unmarshal(body, v.Interface()); err != nil {
				return env, fmt.Errorf("p2p: decode %s payload: %w", name, err)
			}
			if t.Kind() == reflect.Pointer {
				env.Payload = v.Interface()
			} else {
				env.Payload = v.Elem().Interface()
			}
		}
	}
	if r.err != nil {
		return Envelope{}, r.err
	}
	if r.off != len(b) {
		return Envelope{}, fmt.Errorf("p2p: %d trailing bytes after frame", len(b)-r.off)
	}
	return env, nil
}
