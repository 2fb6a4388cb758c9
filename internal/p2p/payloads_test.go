package p2p_test

// The codec fuzz seeds (codec_fuzz_test.go) include payloads that other
// packages register in their init; linking the scheme packages into the
// test binary puts every payload type in the registry.

import (
	"fmt"
	"math"
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

// TestRegisteredPayloadsRoundTrip encodes and decodes samples of every
// registered payload — its zero value (for a pointer sample, a pointer to
// the zero element), a populated value built by p2p.Fill, and for the
// beacon payloads that mark an unknown latency with NaN (a lost beacon
// ping, a member missing from a beacon's row) a vector with NaN entries,
// which the codec carries as their IEEE bits. Each must come back exactly,
// with the same dynamic type: what a handler's type assertion sees on the
// simulator it sees on UDP.
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
	nan := math.NaN()
	unknown := map[string][]float64{
		beacon.MsgGSBest: {12.5, nan, 3},
		beacon.MsgEstOK:  {nan, 4.75, nan},
	}
	for _, name := range names {
		typ := p2p.PayloadType(name)
		zero := reflect.Zero(typ)
		if typ.Kind() == reflect.Pointer {
			zero = reflect.New(typ.Elem())
		}
		full := reflect.New(typ).Elem()
		p2p.Fill(full, new(int))
		samples := []reflect.Value{zero, full}
		if lats, ok := unknown[name]; ok {
			v := reflect.New(typ).Elem()
			v.Field(0).Set(reflect.ValueOf(lats).Convert(v.Field(0).Type()))
			samples = append(samples, v)
		}
		for _, sample := range samples {
			in := p2p.Envelope{Type: name, From: 1, To: 2, MsgID: 3, Resp: true, Payload: sample.Interface()}
			out, err := roundTrip(in)
			if err != nil {
				t.Errorf("%s: %v", name, err)
				continue
			}
			// DeepEqual holds NaN unequal to itself; %#v prints it as NaN,
			// and the NaN samples hold no pointer, so their printing is
			// their value.
			if !reflect.DeepEqual(out, in) && fmt.Sprintf("%#v", out) != fmt.Sprintf("%#v", in) {
				t.Errorf("%s: round trip gave %#v, want %#v", name, out, in)
			}
		}
	}
}

// TestDecodeEnvelopeKeepsNoInput decodes a populated frame of every
// registered payload, overwrites the frame, and checks the envelope did not
// change: the UDP read loop decodes straight from its one read buffer and
// reuses it for the next datagram, so a decoded envelope (its type tag, its
// payload's strings, slices and maps) must alias none of the frame.
func TestDecodeEnvelopeKeepsNoInput(t *testing.T) {
	for _, name := range p2p.RegisteredPayloads() {
		full := reflect.New(p2p.PayloadType(name)).Elem()
		p2p.Fill(full, new(int))
		frame, err := p2p.EncodeEnvelope(p2p.Envelope{Type: name, From: 1, To: 2, MsgID: 3, Payload: full.Interface()})
		if err != nil {
			t.Fatalf("%s: encode: %v", name, err)
		}
		want, err := p2p.DecodeEnvelope(slices.Clone(frame))
		if err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		got, err := p2p.DecodeEnvelope(frame)
		if err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		for i := range frame {
			frame[i] = 0xA5
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: overwriting the frame changed the decoded envelope to %#v, want %#v", name, got, want)
		}
	}
}

func roundTrip(in p2p.Envelope) (p2p.Envelope, error) {
	frame, err := p2p.EncodeEnvelope(in)
	if err != nil {
		return p2p.Envelope{}, fmt.Errorf("encode: %w", err)
	}
	out, err := p2p.DecodeEnvelope(frame)
	if err != nil {
		return p2p.Envelope{}, fmt.Errorf("decode: %w", err)
	}
	return out, nil
}
