package p2p_test

// The codec fuzz seeds (codec_fuzz_test.go) include payloads that other
// packages register in their init; linking the scheme packages into the
// test binary puts every payload type in the registry.

import (
	"reflect"
	"slices"
	"testing"

	"nearestpeer/internal/azureus"
	"nearestpeer/internal/beacon"
	"nearestpeer/internal/kargerruhl"
	"nearestpeer/internal/meridian"
	"nearestpeer/internal/p2p"
	"nearestpeer/internal/pic"
	"nearestpeer/internal/rendezvous"
	"nearestpeer/internal/tapestry"
	"nearestpeer/internal/tiers"
	"nearestpeer/internal/vivaldi"
)

// TestRegisteredPayloadsRoundTrip encodes and decodes the zero value of
// every registered payload (for a pointer sample, a pointer to the zero
// element) and expects it back exactly, with the same dynamic type: what
// a handler's type assertion sees on the simulator it sees on UDP.
func TestRegisteredPayloadsRoundTrip(t *testing.T) {
	names := p2p.RegisteredPayloads()
	// One payload per registering package proves the package is linked.
	for _, want := range []string{"c_find", "x_find", azureus.MsgAnnounceOK, beacon.MsgGSBest,
		kargerruhl.MsgBalls, meridian.MsgRings, pic.MsgStep, rendezvous.MsgListOK,
		tapestry.MsgLevels, tiers.MsgCluster, vivaldi.MsgWalk} {
		if !slices.Contains(names, want) {
			t.Errorf("payload %q not registered; have %v", want, names)
		}
	}
	for _, name := range names {
		typ := p2p.PayloadType(name)
		zero := reflect.Zero(typ)
		if typ.Kind() == reflect.Pointer {
			zero = reflect.New(typ.Elem())
		}
		in := p2p.Envelope{Type: name, From: 1, To: 2, MsgID: 3, Resp: true, Payload: zero.Interface()}
		frame, err := p2p.EncodeEnvelope(in)
		if err != nil {
			t.Errorf("%s: encode: %v", name, err)
			continue
		}
		out, err := p2p.DecodeEnvelope(frame)
		if err != nil {
			t.Errorf("%s: decode: %v", name, err)
			continue
		}
		if !reflect.DeepEqual(out, in) {
			t.Errorf("%s: round trip gave %#v, want %#v", name, out, in)
		}
	}
}
