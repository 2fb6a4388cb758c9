package sim

// The FIFO lane's exactness proof. refSim is the kernel as it was before
// the lane: every event, typed or closure, goes through the binary heap.
// The lane may change what the kernel pays per event but never which event
// runs next, so a program of interleaved At / AtHandler (FIFO and plain) /
// Run / RunUntil / Stop / Head / Pending calls must produce the same trace
// on both kernels: the same events at the same clocks in the same order,
// the same Executed, Pending, Head and QueueHighWater after every call.

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"
)

// refSim is the heap-only reference kernel.
type refSim struct {
	now      time.Duration
	seq      uint64
	queue    eventQueue
	queueHW  int
	stopped  bool
	handlers []func(arg uint64)
	Executed uint64
}

func (s *refSim) Now() time.Duration { return s.now }

func (s *refSim) push(e event) {
	if e.at < s.now {
		panic(fmt.Sprintf("ref: scheduling at %v before now %v", e.at, s.now))
	}
	s.seq++
	e.seq = s.seq
	s.queue.push(e)
	s.queueHW = max(s.queueHW, len(s.queue))
}

func (s *refSim) At(t time.Duration, fn func()) { s.push(event{at: t, fn: fn}) }

func (s *refSim) RegisterHandler(fn func(arg uint64)) HandlerID {
	s.handlers = append(s.handlers, fn)
	return HandlerID(len(s.handlers) - 1)
}

// RegisterFIFOHandler is RegisterHandler: the reference has no lane.
func (s *refSim) RegisterFIFOHandler(fn func(arg uint64)) HandlerID { return s.RegisterHandler(fn) }

func (s *refSim) AtHandler(t time.Duration, h HandlerID, arg uint64) {
	s.push(event{at: t, hw: uint64(h)<<48 | arg})
}

func (s *refSim) Stop() { s.stopped = true }

func (s *refSim) step() {
	e := s.queue.pop()
	s.now = e.at
	s.Executed++
	if e.fn != nil {
		e.fn()
	} else {
		s.handlers[e.hw>>48](e.hw & MaxHandlerArg)
	}
}

func (s *refSim) Run() time.Duration {
	s.stopped = false
	for len(s.queue) > 0 && !s.stopped {
		s.step()
	}
	return s.now
}

func (s *refSim) RunUntil(deadline time.Duration) {
	s.stopped = false
	for len(s.queue) > 0 && !s.stopped && s.queue[0].at <= deadline {
		s.step()
	}
	s.now = max(s.now, deadline)
}

func (s *refSim) Head() (time.Duration, bool) {
	if len(s.queue) == 0 {
		return 0, false
	}
	return s.queue[0].at, true
}

func (s *refSim) Pending() int        { return len(s.queue) }
func (s *refSim) QueueHighWater() int { return s.queueHW }
func (s *refSim) executed() uint64    { return s.Executed }

func (s *Sim) executed() uint64 { return s.Executed }

// kernel is what the order programs drive: *Sim and *refSim.
type kernel interface {
	Now() time.Duration
	At(t time.Duration, fn func())
	RegisterHandler(fn func(arg uint64)) HandlerID
	RegisterFIFOHandler(fn func(arg uint64)) HandlerID
	AtHandler(t time.Duration, h HandlerID, arg uint64)
	Stop()
	Run() time.Duration
	RunUntil(deadline time.Duration)
	Head() (time.Duration, bool)
	Pending() int
	QueueHighWater() int
	executed() uint64
}

// Order programs are byte strings; bytes past the end read as 0. Each op
// byte o selects, by o%8:
//
//	0 d b  At: a closure at now+delay(d) with behaviour b
//	1 d b  AtHandler, plain handler, at now+delay(d)
//	2 d b  AtHandler, FIFO handler A, at now+3ms — or now+1ms when d%4 == 3,
//	       a shorter timeout after longer ones: the lane fallback
//	3 b    AtHandler, FIFO handler B (a second FIFO handler) at now+2ms
//	4      Run
//	5 d    RunUntil(now+delay(d))
//	6      RunUntil(Head()), a deadline exactly on the earliest event
//	7      Stop, outside any event
//
// delay(d) is d%4 milliseconds, so equal times — ties between the lane and
// the heap — are common. An event's behaviour byte b says what it does when
// it runs: bit 0 calls Stop, bit 1 schedules a FIFO-A child at now+3ms, bit
// 2 a plain child at now, bit 3 a closure child at now; children behave
// as b>>4, so cascades end within two generations.
const (
	laneTimeout  = 3 * time.Millisecond
	shortTimeout = time.Millisecond
	otherTimeout = 2 * time.Millisecond
	maxProgram   = 4096
)

// laneCover records which lane situations a program reached on *Sim: a
// lane head and a heap top at the same time, a FIFO event the lane turned
// away, a RunUntil whose deadline sat on a lane head, and a Stop that left
// lane events queued.
type laneCover struct {
	tie, fallback, untilLaneHead, stopMidLane bool
}

// drive runs prog on k and returns its trace, one line per executed event
// and per op.
func drive(k kernel, prog []byte) ([]string, laneCover) {
	var trace []string
	var cover laneCover
	pos := 0
	next := func() byte {
		if pos >= len(prog) {
			pos++
			return 0
		}
		pos++
		return prog[pos-1]
	}
	delay := func(d byte) time.Duration { return time.Duration(d%4) * time.Millisecond }
	label := uint64(0)
	var plain, fifoA, fifoB HandlerID
	var schedule func(kind string, at time.Duration, beh byte)
	run := func(kind string, id uint64, beh byte) {
		trace = append(trace, fmt.Sprintf("run %s#%d at %v", kind, id, k.Now()))
		if beh&1 != 0 {
			k.Stop()
		}
		child := beh >> 4
		if beh&2 != 0 {
			schedule("A", k.Now()+laneTimeout, child)
		}
		if beh&4 != 0 {
			schedule("plain", k.Now(), child)
		}
		if beh&8 != 0 {
			schedule("closure", k.Now(), child)
		}
	}
	schedule = func(kind string, at time.Duration, beh byte) {
		label++
		arg := label<<8 | uint64(beh)
		switch kind {
		case "closure":
			id := label
			k.At(at, func() { run("closure", id, beh) })
		case "plain":
			k.AtHandler(at, plain, arg)
		case "A":
			k.AtHandler(at, fifoA, arg)
		case "B":
			k.AtHandler(at, fifoB, arg)
		}
	}
	handler := func(kind string) func(uint64) {
		return func(arg uint64) { run(kind, arg>>8, byte(arg)) }
	}
	plain = k.RegisterHandler(handler("plain"))
	fifoA = k.RegisterFIFOHandler(handler("A"))
	fifoB = k.RegisterFIFOHandler(handler("B"))
	sim, _ := k.(*Sim)
	for pos < len(prog) {
		o := next() % 8
		switch o {
		case 0:
			d := next()
			schedule("closure", k.Now()+delay(d), next())
		case 1:
			d := next()
			schedule("plain", k.Now()+delay(d), next())
		case 2:
			d := laneTimeout
			if next()%4 == 3 {
				d = shortTimeout
			}
			schedule("A", k.Now()+d, next())
		case 3:
			schedule("B", k.Now()+otherTimeout, next())
		case 4:
			k.Run()
		case 5:
			k.RunUntil(k.Now() + delay(next()))
		case 6:
			if at, ok := k.Head(); ok {
				if sim != nil {
					_, fromLane := sim.next()
					cover.untilLaneHead = cover.untilLaneHead || fromLane
				}
				k.RunUntil(at)
			}
		case 7:
			k.Stop()
		}
		at, ok := k.Head()
		trace = append(trace, fmt.Sprintf("op %d: now %v head %v/%v pending %d executed %d hw %d",
			o, k.Now(), at, ok, k.Pending(), k.executed(), k.QueueHighWater()))
		if sim != nil {
			sim.observe(&cover, o == 4)
		}
	}
	return trace, cover
}

// observe notes the lane situations the kernel is in after an op.
func (s *Sim) observe(c *laneCover, afterRun bool) {
	if s.lane.n > 0 && len(s.queue) > 0 && s.lane.front().at == s.queue[0].at {
		c.tie = true
	}
	for i := range s.queue {
		if e := &s.queue[i]; e.fn == nil && s.fifo[e.hw>>48] {
			c.fallback = true
		}
	}
	if afterRun && s.lane.n > 0 {
		c.stopMidLane = true // Run returns with events queued only after a Stop
	}
}

// compareKernels runs prog on both kernels and fails at the first trace
// line where they part.
func compareKernels(t *testing.T, prog []byte) laneCover {
	t.Helper()
	got, cover := drive(New(), prog)
	want, _ := drive(&refSim{}, prog)
	for i := range min(len(got), len(want)) {
		if got[i] != want[i] {
			t.Fatalf("program %x: trace line %d is %q, reference kernel %q", prog, i, got[i], want[i])
		}
	}
	if len(got) != len(want) {
		t.Fatalf("program %x: %d trace lines, reference kernel %d", prog, len(got), len(want))
	}
	return cover
}

// TestKernelMatchesReference drives random programs through both kernels,
// and checks that together they reach every lane situation laneCover names.
func TestKernelMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	var all laneCover
	for i := 0; i < 300; i++ {
		prog := make([]byte, 16+r.Intn(400))
		r.Read(prog)
		c := compareKernels(t, prog)
		all.tie = all.tie || c.tie
		all.fallback = all.fallback || c.fallback
		all.untilLaneHead = all.untilLaneHead || c.untilLaneHead
		all.stopMidLane = all.stopMidLane || c.stopMidLane
	}
	if all != (laneCover{true, true, true, true}) {
		t.Fatalf("random programs missed a lane situation: %+v", all)
	}
}

// FuzzKernelOrder compares the kernel with the reference on any program.
// The checked-in seeds each reach one lane situation (see
// TestKernelOrderSeedsCover).
func FuzzKernelOrder(f *testing.F) {
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > maxProgram {
			prog = prog[:maxProgram]
		}
		compareKernels(t, prog)
	})
}

// TestKernelOrderSeedsCover keeps the checked-in FuzzKernelOrder seeds
// meaningful: each must still reach the situation its name promises.
func TestKernelOrderSeedsCover(t *testing.T) {
	wants := map[string]func(laneCover) bool{
		"lane-heap-tie":      func(c laneCover) bool { return c.tie },
		"lane-fallback":      func(c laneCover) bool { return c.fallback },
		"rununtil-lane-head": func(c laneCover) bool { return c.untilLaneHead },
		"stop-mid-lane":      func(c laneCover) bool { return c.stopMidLane },
	}
	for name, reached := range wants {
		raw, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzKernelOrder", name))
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
		quoted, ok := strings.CutPrefix(lines[len(lines)-1], "[]byte(")
		prog, err := strconv.Unquote(strings.TrimSuffix(quoted, ")"))
		if !ok || err != nil {
			t.Fatalf("%s: not a []byte corpus entry: %q", name, raw)
		}
		if c := compareKernels(t, []byte(prog)); !reached(c) {
			t.Errorf("seed %s no longer reaches its situation: %+v", name, c)
		}
	}
}
