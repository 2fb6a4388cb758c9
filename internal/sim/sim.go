// Package sim is a small discrete-event simulation kernel: a virtual clock
// and an ordered event queue. The measurement tools and the example
// applications run on it so that concurrent activity (probes in flight,
// expanding multicast searches, swarm churn) interleaves deterministically —
// two runs with the same seed schedule the same events in the same order.
package sim

import (
	"fmt"
	"time"
)

// event is a scheduled callback. Events are stored by value in the queue
// slice: the kernel is the hot path of every message-level experiment
// (each wire message is at least one event), and a pointer-based
// container/heap costs one allocation plus an interface boxing per event.
// The value heap's only steady-state allocation is slice growth.
//
// An event is either a closure (fn != nil) or a typed-payload event: a
// handler registered once with RegisterHandler plus a by-value argument.
// The typed form is what makes the wire send path allocation-free —
// scheduling it copies the (handler, arg) pair into the queue instead of
// allocating a closure per message (see AtHandler). The pair is packed
// into one word (handler ID in the top 16 bits, arg below) to keep the
// event at 32 bytes: one field more and the compiler stops copying events
// with inline loads, and every heap sift pays a memmove — measured 3.7x
// on the kernel's schedule/run hot loop.
type event struct {
	at  time.Duration
	seq uint64
	fn  func()
	hw  uint64
}

// before is the queue order: time, then FIFO among simultaneous events.
func (e *event) before(o *event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

// eventQueue is a binary min-heap of events by (at, seq), stored by value.
type eventQueue []event

func (q *eventQueue) push(e event) {
	*q = append(*q, e)
	h := *q
	// Sift up, hole-style: shift parents down into the hole and place the
	// new event once — one copy per level instead of a three-move swap.
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !e.before(&h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = e
}

func (q *eventQueue) pop() event {
	h := *q
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = event{} // release the callback for GC
	h = h[:n]
	*q = h
	// Sift down, hole-style: bubble the hole to where `last` belongs,
	// copying each winning child up once.
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		if l >= n {
			break
		}
		child := l
		if r < n && h[r].before(&h[l]) {
			child = r
		}
		if !h[child].before(&last) {
			break
		}
		h[i] = h[child]
		i = child
	}
	if n > 0 {
		h[i] = last
	}
	return top
}

// eventLane is the FIFO lane: a ring buffer of typed events that arrive
// already in (at, seq) order, so they need no sorting at all. Request
// expiries are the case it exists for — every one is scheduled at now plus
// the same RPC timeout, and almost none of them fire before the reply wins
// — and a ring push/pop is O(1) where the heap's is O(log n). len(buf) is
// zero or a power of two.
type eventLane struct {
	buf  []event
	head int
	n    int
}

func (l *eventLane) push(e event) {
	if l.n == len(l.buf) {
		l.grow()
	}
	l.buf[(l.head+l.n)&(len(l.buf)-1)] = e
	l.n++
}

// grow doubles the ring, unwrapping it so the oldest event lands at 0.
func (l *eventLane) grow() {
	nb := make([]event, max(16, 2*len(l.buf)))
	k := copy(nb, l.buf[l.head:])
	copy(nb[k:], l.buf[:l.head])
	l.buf, l.head = nb, 0
}

// front is the lane's oldest event; back its newest. Both need n > 0.
func (l *eventLane) front() *event { return &l.buf[l.head] }
func (l *eventLane) back() *event  { return &l.buf[(l.head+l.n-1)&(len(l.buf)-1)] }

// pop removes the oldest event. Lane events are typed (fn == nil), so the
// vacated slot holds nothing the GC needs released.
func (l *eventLane) pop() event {
	e := l.buf[l.head]
	l.head = (l.head + 1) & (len(l.buf) - 1)
	l.n--
	return e
}

// Sim is a discrete-event simulator. It is not safe for concurrent use: all
// scheduling happens from event callbacks or from the driving goroutine.
// Concurrent experiments give every trial its own kernel (see
// internal/engine) instead of sharing one.
type Sim struct {
	now      time.Duration
	seq      uint64
	queue    eventQueue
	lane     eventLane
	queueHW  int
	stopped  bool
	handlers []func(arg uint64)
	// fifo[h] marks handler h as registered with RegisterFIFOHandler.
	fifo []bool
	// laneRun counts the executed events that were served from the lane.
	laneRun uint64
	// Executed counts events run, a cheap progress/cost metric.
	Executed uint64
}

// New returns an empty simulator at time zero.
func New() *Sim {
	return &Sim{}
}

// Now returns the current virtual time.
func (s *Sim) Now() time.Duration { return s.now }

// At schedules fn at absolute virtual time t. Scheduling in the past panics:
// it is always a logic error in a discrete-event model. So does a nil fn —
// a nil closure would otherwise masquerade as a typed event (fn == nil is
// the discriminator) and silently dispatch handler 0 with arg 0.
func (s *Sim) At(t time.Duration, fn func()) {
	if t < s.now {
		panic(fmt.Sprintf("sim: scheduling at %v before now %v", t, s.now))
	}
	if fn == nil {
		panic("sim: At(nil)")
	}
	s.seq++
	s.queue.push(event{at: t, seq: s.seq, fn: fn})
	s.noteDepth()
}

// noteDepth raises the high-water mark to the current queue depth, the
// heap and the lane together.
func (s *Sim) noteDepth() {
	if n := len(s.queue) + s.lane.n; n > s.queueHW {
		s.queueHW = n
	}
}

// After schedules fn after delay d.
func (s *Sim) After(d time.Duration, fn func()) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	s.At(s.now+d, fn)
}

// MaxHandlerArg is the largest argument a typed event can carry: the
// handler ID shares the event's payload word (top 16 bits), so arg is
// limited to 48 bits. Args are indexes into handler-owned state in every
// intended use, nowhere near the limit.
const MaxHandlerArg = 1<<48 - 1

// maxHandlers mirrors the packing: handler IDs occupy the top 16 bits.
const maxHandlers = 1 << 16

// HandlerID names a callback registered with RegisterHandler. The zero
// value is a valid ID (the first registered handler); only events
// scheduled through AtHandler/AfterHandler carry one.
type HandlerID int32

// RegisterHandler registers a typed-event handler and returns its ID.
// Registration is meant to happen once per subsystem at construction time
// (a runtime's deliver routine, a protocol's tick), after which AtHandler
// schedules invocations without allocating: the (HandlerID, arg) pair is
// stored by value in the event queue, and arg is typically an index into
// state the handler owns. Handlers cannot be unregistered — the kernel
// lives exactly as long as the experiment that built it.
func (s *Sim) RegisterHandler(fn func(arg uint64)) HandlerID {
	if fn == nil {
		panic("sim: RegisterHandler(nil)")
	}
	if len(s.handlers) >= maxHandlers {
		panic("sim: too many registered handlers")
	}
	s.handlers = append(s.handlers, fn)
	s.fifo = append(s.fifo, false)
	return HandlerID(len(s.handlers) - 1)
}

// RegisterFIFOHandler registers a typed-event handler whose events are
// mostly scheduled in time order — a constant delay after now, as request
// expiries are. AtHandler parks such an event in the kernel's FIFO lane
// instead of the heap whenever that keeps the lane in (at, seq) order, and
// falls back to the heap otherwise (a shorter delay following a longer
// one), so the registration changes what the kernel pays per event, never
// when an event runs.
func (s *Sim) RegisterFIFOHandler(fn func(arg uint64)) HandlerID {
	h := s.RegisterHandler(fn)
	s.fifo[h] = true
	return h
}

// AtHandler schedules handler h with arg at absolute virtual time t. It is
// the allocation-free twin of At: same (at, seq) ordering — a typed event
// and a closure scheduled at the same instant run in scheduling order —
// same past-scheduling panic, no per-event allocation beyond amortised
// queue growth. arg must not exceed MaxHandlerArg.
func (s *Sim) AtHandler(t time.Duration, h HandlerID, arg uint64) {
	if t < s.now {
		panic(fmt.Sprintf("sim: scheduling at %v before now %v", t, s.now))
	}
	if int(h) < 0 || int(h) >= len(s.handlers) {
		panic(fmt.Sprintf("sim: unregistered handler %d", h))
	}
	if arg > MaxHandlerArg {
		panic(fmt.Sprintf("sim: handler arg %d exceeds %d", arg, uint64(MaxHandlerArg)))
	}
	s.seq++
	e := event{at: t, seq: s.seq, hw: uint64(h)<<48 | arg}
	// seq only grows, so an event no earlier than the lane's newest keeps
	// the lane in (at, seq) order.
	if s.fifo[h] && (s.lane.n == 0 || s.lane.back().at <= t) {
		s.lane.push(e)
	} else {
		s.queue.push(e)
	}
	s.noteDepth()
}

// AfterHandler schedules handler h with arg after delay d.
func (s *Sim) AfterHandler(d time.Duration, h HandlerID, arg uint64) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	s.AtHandler(s.now+d, h, arg)
}

// Stop makes Run return after the current event completes.
func (s *Sim) Stop() { s.stopped = true }

// next returns the earliest pending event and whether it is the lane's
// front (else the heap's top), or nil when nothing is pending. Lane and
// heap are each sorted by (at, seq), so the earlier of their heads is the
// global (at, seq) minimum.
func (s *Sim) next() (*event, bool) {
	if s.lane.n > 0 && (len(s.queue) == 0 || s.lane.front().before(&s.queue[0])) {
		return s.lane.front(), true
	}
	if len(s.queue) > 0 {
		return &s.queue[0], false
	}
	return nil, false
}

// step pops the earliest pending event (from the lane when fromLane, as
// next reported), advances the clock to it and dispatches it — the one
// event-dispatch body Run and RunUntil share. The closure/typed-event
// discriminator and the handler unpack live here and nowhere else.
func (s *Sim) step(fromLane bool) {
	var e event
	if fromLane {
		e = s.lane.pop()
		s.laneRun++
	} else {
		e = s.queue.pop()
	}
	s.now = e.at
	s.Executed++
	if e.fn != nil {
		e.fn()
	} else {
		s.handlers[e.hw>>48](e.hw & MaxHandlerArg)
	}
}

// Run executes events until the queue drains or Stop is called. It returns
// the virtual time of the last executed event.
func (s *Sim) Run() time.Duration {
	s.stopped = false
	for !s.stopped {
		e, fromLane := s.next()
		if e == nil {
			break
		}
		s.step(fromLane)
	}
	return s.now
}

// RunUntil executes events with time <= deadline; the clock ends at
// deadline even if the queue drained earlier.
func (s *Sim) RunUntil(deadline time.Duration) {
	s.stopped = false
	for !s.stopped {
		e, fromLane := s.next()
		if e == nil || e.at > deadline {
			break
		}
		s.step(fromLane)
	}
	if s.now < deadline {
		s.now = deadline
	}
}

// Head returns the virtual time of the earliest pending event, or ok=false
// when the queue is empty. The sharded coordinator reads it between windows
// to pick the next window start; single-kernel callers never need it.
func (s *Sim) Head() (time.Duration, bool) {
	if e, _ := s.next(); e != nil {
		return e.at, true
	}
	return 0, false
}

// Pending returns the number of queued events, heap and lane together.
func (s *Sim) Pending() int { return len(s.queue) + s.lane.n }

// QueueHighWater returns the largest number of events that have ever been
// queued at once (heap and lane together) — the kernel-side health stat
// the observability sampler reads alongside Pending. Tracking it is one
// compare per push; the event struct itself is untouched.
func (s *Sim) QueueHighWater() int { return s.queueHW }

// LaneExecuted returns how many of the Executed events were served from
// the FIFO lane (see RegisterFIFOHandler) rather than the heap: kernel
// self-telemetry, a pure function of the event set like Executed itself.
func (s *Sim) LaneExecuted() uint64 { return s.laneRun }
