// Package faults is the deterministic fault plane and the transports' only
// loss model: a seeded Plan of scheduled network and node faults
// (per-message loss, loss bursts, delay spikes, duplication, reordering,
// asymmetric link black-holes, bidirectional partitions, node
// crash/restart) that every transport in internal/p2p can run under — the
// simulation kernel in virtual time, the loopback and UDP transports in
// wall-clock time — with the identical fault sequence.
//
// Determinism rule: every probabilistic decision is a stateless hash mix of
// (plan seed, rule index, src, dst, key) — no RNG state, no draw order.
// The windowed kinds key on the time window: time is quantized into
// Window-sized buckets counted from the transport's own zero (virtual zero
// on the simulator, transport start on the live transports), so a loss
// burst drops a whole window's traffic on a link, the burstiness real
// networks exhibit. Loss keys on the sender's send ordinal instead, so each
// message gets its own coin, even among sends in one instant. Two
// transports running the same plan therefore agree on every decision no
// matter how their deliveries interleave or their hosts are sharded, which
// is what the differential sim-vs-loopback test pins.
//
// The package deliberately depends on nothing inside the repository, so
// internal/p2p can import it without cycles.
package faults

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Kind enumerates the fault types a Rule can schedule.
type Kind uint8

const (
	// LossBurst drops every message on an afflicted (src, dst, window)
	// with probability Prob per window — bursty loss, not a per-message coin.
	LossBurst Kind = iota
	// DelaySpike adds ExtraMs of one-way delay on afflicted
	// (src, dst, window) tuples, drawn with probability Prob per window
	// (Prob 0 means every window in the active interval spikes).
	DelaySpike
	// Duplicate delivers every message on an afflicted (src, dst, window)
	// twice, drawn with probability Prob per window. The receiver's
	// inflight correlation must drop the extra copy.
	Duplicate
	// Reorder holds messages on afflicted (src, dst, window) tuples back by
	// ExtraMs, drawn with probability Prob per window — delaying a subset
	// of windows reorders their traffic relative to later sends.
	Reorder
	// Blackhole drops everything src→dst while active: an asymmetric link
	// failure (the reverse direction still flows).
	Blackhole
	// Partition drops everything between host set A and host set B, both
	// directions, while active: a clean bidirectional network split.
	Partition
	// Crash stops every node in Nodes at At and restarts it at At+For — a
	// process crash with a later supervisor restart.
	Crash
	// Loss drops each message on an afflicted link with probability Prob,
	// one independent coin per message (keyed on the send ordinal).
	Loss
)

// String names a Kind the way Parse spells it.
func (k Kind) String() string {
	switch k {
	case LossBurst:
		return "burst"
	case DelaySpike:
		return "spike"
	case Duplicate:
		return "dup"
	case Reorder:
		return "reorder"
	case Blackhole:
		return "blackhole"
	case Partition:
		return "partition"
	case Crash:
		return "crash"
	case Loss:
		return "loss"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Set selects hosts by ID: everything, an inclusive range, or an explicit
// list. The zero Set selects nothing; build sets with Everyone, Range and
// List.
type Set struct {
	// All selects every host (the "*" spec).
	All bool
	// Ranged enables the inclusive ID range [Lo, Hi]. Without it the Lo/Hi
	// fields are ignored, so the zero Set selects nobody.
	Ranged bool
	// Lo, Hi bound the inclusive ID range when Ranged is set.
	Lo, Hi int
	// IDs selects an explicit ID list.
	IDs []int
}

// Everyone returns the wildcard set.
func Everyone() Set { return Set{All: true} }

// Range returns the inclusive ID range [lo, hi].
func Range(lo, hi int) Set { return Set{Ranged: true, Lo: lo, Hi: hi} }

// List returns an explicit ID set.
func List(ids ...int) Set { return Set{IDs: ids} }

// Contains reports whether the set selects id.
func (s Set) Contains(id int) bool {
	if s.All {
		return true
	}
	for _, v := range s.IDs {
		if v == id {
			return true
		}
	}
	return s.Ranged && id >= s.Lo && id <= s.Hi
}

// Empty reports whether the set selects no host at all.
func (s Set) Empty() bool { return !s.All && len(s.IDs) == 0 && !s.Ranged }

// spec renders the set in Parse's syntax.
func (s Set) spec() string {
	if s.All {
		return "*"
	}
	if len(s.IDs) > 0 {
		parts := make([]string, len(s.IDs))
		for i, id := range s.IDs {
			parts[i] = strconv.Itoa(id)
		}
		return strings.Join(parts, ".")
	}
	if s.Hi == s.Lo {
		return strconv.Itoa(s.Lo)
	}
	return fmt.Sprintf("%d-%d", s.Lo, s.Hi)
}

// Rule is one scheduled fault: a Kind, the active interval [At, At+For),
// the hosts it afflicts, and the kind-specific knobs.
type Rule struct {
	// Kind is the fault type.
	Kind Kind
	// At is when the fault becomes active, measured from the transport's
	// zero; For is how long it stays active.
	At, For time.Duration
	// Prob is the draw probability, per (src,dst,window) for LossBurst,
	// DelaySpike, Duplicate and Reorder and per message for Loss. 0 on
	// DelaySpike/Duplicate/Reorder means "every window".
	Prob float64
	// ExtraMs is the added one-way delay for DelaySpike and Reorder.
	ExtraMs float64
	// Src and Dst scope link faults: a message src→dst is afflicted when
	// src ∈ Src and dst ∈ Dst (Partition also afflicts the reverse
	// direction). Empty sets never match; use Everyone() for wildcards.
	Src, Dst Set
	// Nodes scopes Crash rules.
	Nodes Set
}

// forever is the For of a rule that stays active to the end of the run.
const forever = time.Duration(math.MaxInt64)

// active reports whether the rule's interval covers now (without forming
// At+For, which overflows for a whole-run rule).
func (r Rule) active(now time.Duration) bool {
	return now >= r.At && now-r.At < r.For
}

// Plan is a seeded, scheduled set of fault rules. The zero Plan (or a nil
// *Plan) injects nothing.
type Plan struct {
	// Seed drives every probabilistic draw; two transports running plans
	// with equal seeds, windows and rules make identical decisions.
	Seed int64
	// Window is the decision quantum for probabilistic draws. Non-positive
	// uses DefaultWindow.
	Window time.Duration
	// Rules is the fault schedule.
	Rules []Rule
}

// DefaultWindow is the decision quantum used when a plan does not set one:
// coarse enough that wall-clock scheduling jitter cannot move a send
// across a window boundary in the differential tests, fine enough that
// bursts and spikes churn within one experiment phase.
const DefaultWindow = 250 * time.Millisecond

// Decision is the fault plane's verdict for one message send.
type Decision struct {
	// Drop discards the message (counted, never delivered).
	Drop bool
	// Dup delivers a second copy of the message.
	Dup bool
	// ExtraMs is added one-way delay.
	ExtraMs float64
}

// window returns the plan's decision quantum.
func (p *Plan) window() time.Duration {
	if p.Window > 0 {
		return p.Window
	}
	return DefaultWindow
}

// Decide is DecideSend for a sender's first send (ordinal 0): the verdict
// of a caller that keeps no send ordinals.
func (p *Plan) Decide(src, dst int, now time.Duration) Decision {
	return p.DecideSend(src, dst, now, 0)
}

// DecideSend returns the fault verdict for a message src→dst sent at now
// (time measured from the transport's zero) as src's ord-th decided send.
// It is a pure function of the plan and its arguments: no state, no draw
// order, identical in virtual and wall-clock time. ord keys the Loss draw
// alone; a transport counts it per sender, at the sender, so it is the
// same on every transport and at every shard count.
func (p *Plan) DecideSend(src, dst int, now time.Duration, ord uint32) Decision {
	var d Decision
	if p == nil {
		return d
	}
	win := int64(now / p.window())
	for i := range p.Rules {
		r := &p.Rules[i]
		if !r.active(now) {
			continue
		}
		switch r.Kind {
		case Blackhole:
			if r.Src.Contains(src) && r.Dst.Contains(dst) {
				d.Drop = true
			}
		case Partition:
			if (r.Src.Contains(src) && r.Dst.Contains(dst)) ||
				(r.Src.Contains(dst) && r.Dst.Contains(src)) {
				d.Drop = true
			}
		case LossBurst:
			if r.Src.Contains(src) && r.Dst.Contains(dst) && p.draw(i, src, dst, win) < r.Prob {
				d.Drop = true
			}
		case Loss:
			if r.Src.Contains(src) && r.Dst.Contains(dst) && p.draw(i, src, dst, int64(ord)) < r.Prob {
				d.Drop = true
			}
		case DelaySpike, Reorder:
			if r.Src.Contains(src) && r.Dst.Contains(dst) &&
				(r.Prob <= 0 || p.draw(i, src, dst, win) < r.Prob) {
				d.ExtraMs += r.ExtraMs
			}
		case Duplicate:
			if r.Src.Contains(src) && r.Dst.Contains(dst) &&
				(r.Prob <= 0 || p.draw(i, src, dst, win) < r.Prob) {
				d.Dup = true
			}
		}
		if d.Drop {
			return Decision{Drop: true}
		}
	}
	return d
}

// draw is the stateless per-(rule, src, dst, key) uniform draw in [0, 1),
// key being the window or, for Loss, the send ordinal: a splitmix64-style
// finalizer folded over the tuple, seeded by the plan seed. The +1 offsets
// keep distinct zero-valued fields from colliding.
func (p *Plan) draw(rule, src, dst int, key int64) float64 {
	x := uint64(p.Seed) ^ 0x9e3779b97f4a7c15
	for _, v := range [4]uint64{uint64(rule) + 1, uint64(src) + 1, uint64(dst) + 1, uint64(key) + 1} {
		x ^= v * 0xbf58476d1ce4e5b9
		x = (x ^ (x >> 30)) * 0x94d049bb133111eb
		x ^= x >> 31
	}
	return float64(x>>11) / (1 << 53)
}

// NodeEvent is one scheduled node transition: at At, the node goes down
// (Up false) or comes back up (Up true).
type NodeEvent struct {
	// At is when the transition happens, from the transport's zero.
	At time.Duration
	// Node is the afflicted host ID.
	Node int
	// Up is false for the crash, true for the restart.
	Up bool
}

// NodeEvents expands the plan's Crash rules over a population into a
// schedule of down/up transitions, sorted by time (ties: node ID, down
// before up). pop bounds the IDs a wildcard or range set expands to.
func (p *Plan) NodeEvents(pop int) []NodeEvent {
	if p == nil {
		return nil
	}
	var evs []NodeEvent
	for _, r := range p.Rules {
		if r.Kind != Crash {
			continue
		}
		for id := 0; id < pop; id++ {
			if !r.Nodes.Contains(id) {
				continue
			}
			evs = append(evs, NodeEvent{At: r.At, Node: id, Up: false})
			evs = append(evs, NodeEvent{At: r.At + r.For, Node: id, Up: true})
		}
	}
	sort.Slice(evs, func(i, j int) bool {
		if evs[i].At != evs[j].At {
			return evs[i].At < evs[j].At
		}
		if evs[i].Node != evs[j].Node {
			return evs[i].Node < evs[j].Node
		}
		return !evs[i].Up && evs[j].Up
	})
	return evs
}

// Validate checks the plan's rules for out-of-range knobs.
func (p *Plan) Validate() error {
	if p == nil {
		return nil
	}
	if p.Window < 0 {
		return fmt.Errorf("faults: negative window %v", p.Window)
	}
	for i, r := range p.Rules {
		if r.At < 0 || r.For <= 0 {
			return fmt.Errorf("faults: rule %d (%s): interval at=%v for=%v", i, r.Kind, r.At, r.For)
		}
		if !(r.Prob >= 0 && r.Prob <= 1) { // NaN too
			return fmt.Errorf("faults: rule %d (%s): probability %v out of [0,1]", i, r.Kind, r.Prob)
		}
		if r.ExtraMs < 0 {
			return fmt.Errorf("faults: rule %d (%s): negative extra delay %v ms", i, r.Kind, r.ExtraMs)
		}
		switch r.Kind {
		case Crash:
			if r.Nodes.Empty() {
				return fmt.Errorf("faults: rule %d (crash): empty node set", i)
			}
		case LossBurst, DelaySpike, Duplicate, Reorder, Blackhole, Partition, Loss:
			if r.Src.Empty() || r.Dst.Empty() {
				return fmt.Errorf("faults: rule %d (%s): empty src or dst set", i, r.Kind)
			}
		default:
			return fmt.Errorf("faults: rule %d: unknown kind %d", i, int(r.Kind))
		}
	}
	return nil
}

// String renders the plan in Parse's syntax (a plan round-trips through
// Parse(plan.String())). It leaves out what Parse fills in: the interval
// of a whole-run Loss rule, and link scopes of everyone.
func (p *Plan) String() string {
	if p == nil {
		return ""
	}
	parts := []string{fmt.Sprintf("seed=%d", p.Seed)}
	if p.Window > 0 {
		parts = append(parts, fmt.Sprintf("window=%s", p.Window))
	}
	for _, r := range p.Rules {
		var kv []string
		if r.Kind != Loss || r.At != 0 || r.For != forever {
			kv = append(kv, fmt.Sprintf("at=%s", r.At), fmt.Sprintf("for=%s", r.For))
		}
		if r.Prob > 0 {
			kv = append(kv, fmt.Sprintf("prob=%v", r.Prob))
		}
		if r.ExtraMs > 0 {
			kv = append(kv, fmt.Sprintf("extra=%v", r.ExtraMs))
		}
		switch r.Kind {
		case Crash:
			kv = append(kv, "nodes="+r.Nodes.spec())
		case Partition:
			kv = append(kv, "a="+r.Src.spec(), "b="+r.Dst.spec())
		default:
			if !r.Src.All || !r.Dst.All {
				kv = append(kv, "src="+r.Src.spec(), "dst="+r.Dst.spec())
			}
		}
		parts = append(parts, fmt.Sprintf("%s:%s", r.Kind, strings.Join(kv, ",")))
	}
	return strings.Join(parts, ";")
}

// Parse reads the CLI plan syntax: semicolon-separated segments, each
// either a plan-level "seed=N" / "window=DUR" assignment or a rule
// "kind:key=val,key=val,...". Host sets are "*" (everyone), "lo-hi"
// (inclusive range), a single ID, or a dot-separated list "1.3.5".
//
//	seed=7;loss:prob=0.05;burst:at=5s,for=3s,prob=0.5,src=*,dst=*;partition:at=10s,for=5s,a=0-4,b=5-9;crash:at=16s,for=4s,nodes=7
//
// Rule keys: at, for (durations); prob (float); extra (ms, float);
// src, dst (link scope); a, b (partition sides); nodes (crash scope).
// Omitted src/dst default to "*"; a loss rule without at/for lasts the
// whole run.
func Parse(spec string) (*Plan, error) {
	p := &Plan{}
	for _, seg := range strings.Split(spec, ";") {
		seg = strings.TrimSpace(seg)
		if seg == "" {
			continue
		}
		if kind, body, ok := strings.Cut(seg, ":"); ok {
			r, err := parseRule(kind, body)
			if err != nil {
				return nil, err
			}
			p.Rules = append(p.Rules, r)
			continue
		}
		key, val, ok := strings.Cut(seg, "=")
		if !ok {
			return nil, fmt.Errorf("faults: segment %q is neither key=val nor kind:...", seg)
		}
		switch key {
		case "seed":
			n, err := strconv.ParseInt(val, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("faults: seed %q: %w", val, err)
			}
			p.Seed = n
		case "window":
			d, err := time.ParseDuration(val)
			if err != nil {
				return nil, fmt.Errorf("faults: window %q: %w", val, err)
			}
			p.Window = d
		default:
			return nil, fmt.Errorf("faults: unknown plan key %q", key)
		}
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// parseRule reads one "kind:key=val,..." rule segment.
func parseRule(kind, body string) (Rule, error) {
	var r Rule
	switch kind {
	case "burst":
		r.Kind = LossBurst
	case "spike":
		r.Kind = DelaySpike
	case "dup":
		r.Kind = Duplicate
	case "reorder":
		r.Kind = Reorder
	case "blackhole":
		r.Kind = Blackhole
	case "partition":
		r.Kind = Partition
	case "crash":
		r.Kind = Crash
	case "loss":
		r.Kind, r.For = Loss, forever
	default:
		return r, fmt.Errorf("faults: unknown rule kind %q", kind)
	}
	if r.Kind != Partition && r.Kind != Crash {
		// Partition sides and crash sets must be explicit; link faults
		// default to afflicting every link.
		r.Src, r.Dst = Everyone(), Everyone()
	}
	for _, kv := range strings.Split(body, ",") {
		kv = strings.TrimSpace(kv)
		if kv == "" {
			continue
		}
		key, val, ok := strings.Cut(kv, "=")
		if !ok {
			return r, fmt.Errorf("faults: rule %s: bad key=val %q", kind, kv)
		}
		var err error
		switch key {
		case "at":
			r.At, err = time.ParseDuration(val)
		case "for":
			r.For, err = time.ParseDuration(val)
		case "prob":
			r.Prob, err = strconv.ParseFloat(val, 64)
		case "extra":
			r.ExtraMs, err = strconv.ParseFloat(val, 64)
		case "src", "a":
			r.Src, err = parseSet(val)
		case "dst", "b":
			r.Dst, err = parseSet(val)
		case "nodes":
			r.Nodes, err = parseSet(val)
		default:
			err = fmt.Errorf("unknown key %q", key)
		}
		if err != nil {
			return r, fmt.Errorf("faults: rule %s: %s=%q: %w", kind, key, val, err)
		}
	}
	return r, nil
}

// parseSet reads the host-set syntax: "*", "lo-hi", "id", or "1.3.5".
func parseSet(spec string) (Set, error) {
	if spec == "*" {
		return Everyone(), nil
	}
	if lo, hi, ok := strings.Cut(spec, "-"); ok {
		a, err1 := strconv.Atoi(lo)
		b, err2 := strconv.Atoi(hi)
		if err1 != nil || err2 != nil || a > b || a < 0 {
			return Set{}, fmt.Errorf("bad range %q", spec)
		}
		return Range(a, b), nil
	}
	if strings.Contains(spec, ".") {
		var ids []int
		for _, part := range strings.Split(spec, ".") {
			v, err := strconv.Atoi(part)
			if err != nil || v < 0 {
				return Set{}, fmt.Errorf("bad id %q in list %q", part, spec)
			}
			ids = append(ids, v)
		}
		return List(ids...), nil
	}
	v, err := strconv.Atoi(spec)
	if err != nil || v < 0 {
		return Set{}, fmt.Errorf("bad id %q", spec)
	}
	return Range(v, v), nil
}

// Lossy returns p (nil: a plan seeded seed) plus a whole-run Loss rule of
// probability prob on every link, last, so p's rules keep their draws; p
// itself, unchanged, when prob is 0.
func Lossy(p *Plan, seed int64, prob float64) *Plan {
	if prob == 0 {
		return p
	}
	out := Plan{Seed: seed}
	if p != nil {
		out = *p
	}
	out.Rules = append(slices.Clip(out.Rules), Rule{Kind: Loss, For: forever, Prob: prob, Src: Everyone(), Dst: Everyone()})
	return &out
}
