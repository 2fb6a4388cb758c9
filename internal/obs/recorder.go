package obs

import (
	"encoding/json"
	"io"
	"time"
)

// Outcome classifies how one recorded hop ended.
type Outcome uint8

// Hop outcomes. HopRetry marks a hop re-issued after a predecessor timed
// out on the same lookup; HopAlternate marks a fallback route taken after
// the preferred next hop failed.
const (
	HopOK Outcome = iota
	HopTimeout
	HopRetry
	HopAlternate
)

// String returns the outcome's wire name (used in the JSON dump).
func (o Outcome) String() string {
	switch o {
	case HopOK:
		return "ok"
	case HopTimeout:
		return "timeout"
	case HopRetry:
		return "retry"
	case HopAlternate:
		return "alternate"
	}
	return "unknown"
}

// Hop is one per-hop flight-recorder trace record. It is stored by value in
// the recorder's ring — no pointers beyond the two (constant) strings — so
// recording one costs a single slot write.
type Hop struct {
	// Lookup groups the hops of one lookup (from Recorder.Begin, or a
	// scheme-native query ID).
	Lookup uint64
	// Scheme names the lookup scheme: the registry name a p2p.Query was
	// opened under ("meridian", "vivaldi", "guyton", ...), or "chord" for
	// a Chord lookup (the DHT Gets of ucl and ipprefix included).
	Scheme string
	// Type is the wire message type the hop used.
	Type string
	// From and To are the hop endpoints (matrix indices).
	From, To int
	// At is the virtual time the hop was issued.
	At time.Duration
	// RTTms is the measured round trip in virtual milliseconds (0 when the
	// hop timed out).
	RTTms float64
	// Outcome tells how the hop ended.
	Outcome Outcome
}

// Recorder is the lookup flight recorder: a fixed-capacity ring buffer of
// per-hop trace records. When full it overwrites the oldest record and
// counts the overwrite, so attaching one to an arbitrarily long run is safe
// and allocation-free after construction.
type Recorder struct {
	ring    []Hop
	next    int
	total   uint64
	lookups uint64
}

// NewRecorder builds a flight recorder holding up to capacity hops.
func NewRecorder(capacity int) *Recorder {
	if capacity <= 0 {
		panic("obs: NewRecorder requires capacity > 0")
	}
	return &Recorder{ring: make([]Hop, capacity)}
}

// Begin allocates a recorder-unique lookup ID to group a lookup's hops.
func (r *Recorder) Begin() uint64 {
	r.lookups++
	return r.lookups
}

// Record appends one hop, overwriting the oldest record when the ring is
// full. It never allocates.
func (r *Recorder) Record(h Hop) {
	r.ring[r.next] = h
	r.next++
	if r.next == len(r.ring) {
		r.next = 0
	}
	r.total++
}

// Len returns the number of hops currently held (at most the capacity).
func (r *Recorder) Len() int {
	if r.total >= uint64(len(r.ring)) {
		return len(r.ring)
	}
	return int(r.total)
}

// Recorded returns the total number of hops ever recorded.
func (r *Recorder) Recorded() uint64 { return r.total }

// Dropped returns how many records were overwritten by ring wrap-around.
func (r *Recorder) Dropped() uint64 {
	if r.total > uint64(len(r.ring)) {
		return r.total - uint64(len(r.ring))
	}
	return 0
}

// Snapshot copies the held records out in chronological order.
func (r *Recorder) Snapshot() []Hop {
	n := r.Len()
	out := make([]Hop, 0, n)
	start := 0
	if r.total >= uint64(len(r.ring)) {
		start = r.next // oldest surviving record
	}
	for i := 0; i < n; i++ {
		out = append(out, r.ring[(start+i)%len(r.ring)])
	}
	return out
}

// hopJSON is the wire form of one Hop in the trace dump.
type hopJSON struct {
	Lookup  uint64  `json:"lookup"`
	Scheme  string  `json:"scheme"`
	Type    string  `json:"type"`
	From    int     `json:"from"`
	To      int     `json:"to"`
	AtMs    float64 `json:"at_ms"`
	RTTms   float64 `json:"rtt_ms"`
	Outcome string  `json:"outcome"`
}

// traceJSON is the top-level trace dump written by WriteJSON.
type traceJSON struct {
	Schema   string    `json:"schema"`
	Recorded uint64    `json:"recorded"`
	Dropped  uint64    `json:"dropped"`
	Hops     []hopJSON `json:"hops"`
}

// WriteJSON dumps the held records as indented JSON (schema
// nearestpeer/flight_recorder/v1), oldest first, with virtual times in
// milliseconds. This is the payload behind `npsim -trace`.
func (r *Recorder) WriteJSON(w io.Writer) error {
	hops := r.Snapshot()
	doc := traceJSON{
		Schema:   "nearestpeer/flight_recorder/v1",
		Recorded: r.Recorded(),
		Dropped:  r.Dropped(),
		Hops:     make([]hopJSON, len(hops)),
	}
	for i, h := range hops {
		doc.Hops[i] = hopJSON{
			Lookup:  h.Lookup,
			Scheme:  h.Scheme,
			Type:    h.Type,
			From:    h.From,
			To:      h.To,
			AtMs:    float64(h.At) / float64(time.Millisecond),
			RTTms:   h.RTTms,
			Outcome: h.Outcome.String(),
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}
