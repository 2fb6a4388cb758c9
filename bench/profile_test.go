package main

import (
	"bytes"
	"math"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

// burnMap spends CPU in map operations under a function whose name the
// test can look for.
func burnMap(d time.Duration) int {
	m := map[int]int{}
	stop := time.Now().Add(d)
	for i := 0; time.Now().Before(stop); i++ {
		m[i&4095] += i
	}
	return len(m)
}

func TestParseProfileCapturedInTest(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiling unavailable: %v", err)
	}
	burnMap(400 * time.Millisecond)
	pprof.StopCPUProfile()

	samples, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatalf("parseProfile: %v", err)
	}
	var ticks, inBurn int64
	for _, s := range samples {
		ticks += s.count
		for _, f := range s.frames {
			if strings.HasSuffix(f.fn, "bench.burnMap") || strings.HasSuffix(f.fn, "main.burnMap") {
				inBurn += s.count
				if !strings.HasSuffix(f.file, "profile_test.go") {
					t.Errorf("burnMap's file decoded as %q", f.file)
				}
				break
			}
		}
	}
	// 400 ms at 100 Hz is ~40 ticks; a loaded machine delivers fewer.
	if ticks < 10 {
		t.Fatalf("decoded %d ticks from a 400 ms busy loop", ticks)
	}
	if inBurn*2 < ticks {
		t.Errorf("only %d of %d ticks have burnMap on the stack", inBurn, ticks)
	}
	shares, total := cpuShares(samples)
	if total != ticks {
		t.Errorf("cpuShares total %d, want %d", total, ticks)
	}
	sum := 0.0
	for _, l := range cpuLayers {
		sum += shares[l]
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("shares sum to %v", sum)
	}
	// The loop body is map access from test code: go_map and other
	// (package main) must hold nearly all of it.
	if got := shares[layerGoMap] + shares[layerOther]; got < 0.8 {
		t.Errorf("go_map + other = %.2f of a map-bound loop in package main; shares %v", got, shares)
	}
}

func TestParseProfileRejectsGarbage(t *testing.T) {
	for _, data := range [][]byte{
		{0x1f, 0x8b, 0x00},             // gzip magic, no stream
		{0x12, 0x7f, 0x01},             // sample field longer than the buffer
		{0x0a, 0x02, 0xff, 0xff, 0xff}, // trailing junk varint
	} {
		if _, err := parseProfile(data); err == nil {
			t.Errorf("parseProfile(% x) accepted garbage", data)
		}
	}
}

func TestPkgOf(t *testing.T) {
	for fn, want := range map[string]string{
		"nearestpeer/internal/p2p.(*Chord).learn":                                                                       "nearestpeer/internal/p2p",
		"nearestpeer/internal/experiments.runWireChordSharded.func1":                                                    "nearestpeer/internal/experiments",
		"nearestpeer/internal/engine.Map[go.shape.struct { nearestpeer/bench.scheme string },nearestpeer/bench.zooRow]": "nearestpeer/internal/engine",
		"runtime.mapaccess2_faststr":                                                                                    "runtime",
		"internal/runtime/maps.(*Map).getWithKey":                                                                       "internal/runtime/maps",
		"encoding/json.(*decodeState).object":                                                                           "encoding/json",
		"main.main":                                                                                                     "main",
		"internal/runtime/syscall.Syscall6":                                                                             "internal/runtime/syscall",
		"gcBgMarkWorker":                                                                                                "gcBgMarkWorker",
		"sort.Slice":                                                                                                    "sort",
		"golang.org/x/sys/unix.Syscall":                                                                                 "golang.org/x/sys/unix",
		"nearestpeer/internal/sim.(*Sim).AtHandler":                                                                     "nearestpeer/internal/sim",
	} {
		if got := pkgOf(fn); got != want {
			t.Errorf("pkgOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// TestLayerTable runs the leaf→layer rules over stacks made of symbol
// names copied from real profiles of the five workloads.
func TestLayerTable(t *testing.T) {
	const repo = "/root/repo/internal/"
	fr := func(fn, file string) frame { return frame{fn: fn, file: file} }
	var (
		learn     = fr("nearestpeer/internal/p2p.(*Chord).learn", repo+"p2p/chord.go")
		deliver   = fr("nearestpeer/internal/p2p.(*Node).deliver", repo+"p2p/node.go")
		rtSend    = fr("nearestpeer/internal/p2p.(*Runtime).send", repo+"p2p/runtime.go")
		udpSend   = fr("nearestpeer/internal/p2p.(*UDP).send", repo+"p2p/udp.go")
		readLoop  = fr("nearestpeer/internal/p2p.(*UDP).readLoop", repo+"p2p/udp.go")
		liveRun   = fr("nearestpeer/internal/p2p.(*liveLoop).run", repo+"p2p/live.go")
		encode    = fr("nearestpeer/internal/p2p.EncodeEnvelope", repo+"p2p/codec.go")
		expand    = fr("nearestpeer/internal/p2p.(*Expanding).Search", repo+"p2p/expand.go")
		simStep   = fr("nearestpeer/internal/sim.(*Sim).step", repo+"sim/sim.go")
		simPop    = fr("nearestpeer/internal/sim.(*eventQueue).pop", repo+"sim/sim.go")
		price     = fr("nearestpeer/internal/netmodel.(*Topology).TreeOneWayMs", repo+"netmodel/routing.go")
		matrix    = fr("nearestpeer/internal/latency.(*FullTopologyMatrix).LatencyMs", repo+"latency/latency.go")
		uclWire   = fr("nearestpeer/internal/ucl.(*Wire).publish", repo+"ucl/wire.go")
		meridian  = fr("nearestpeer/internal/meridian.(*Overlay).FindNearest", repo+"meridian/meridian.go")
		hashKey   = fr("nearestpeer/internal/dht.HashKey", repo+"dht/dht.go")
		harness   = fr("nearestpeer/internal/experiments.runWireFinderMitigation", repo+"experiments/registry.go")
		engineRun = fr("nearestpeer/internal/engine.Run[go.shape.struct {}]", repo+"engine/engine.go")
		nearest   = fr("nearestpeer/internal/overlay.TrueNearest", repo+"overlay/overlay.go")
		obsSend   = fr("nearestpeer/internal/obs.(*Registry).NoteSend", repo+"obs/obs.go")
		benchMain = fr("main.(*liveInstance).run.func1", "/root/repo/bench/live.go")
		goexit    = fr("runtime.goexit", "/usr/local/go/src/runtime/asm_amd64.s")
	)
	rt := func(name string) frame { return fr("runtime."+name, "/usr/local/go/src/runtime/x.go") }
	lib := func(fn string) frame { return fr(fn, "/usr/local/go/src/x.go") }

	for _, c := range []struct {
		name  string
		stack []frame // leaf first
		want  string
	}{
		{"chord self time", []frame{learn, deliver, simStep}, layerChord},
		{"runtime self time", []frame{deliver, simStep}, layerP2PRuntime},
		{"kernel heap", []frame{simPop, simStep}, layerSim},
		{"pricing", []frame{price, matrix, rtSend}, layerNetmodel},
		{"latency matrix", []frame{matrix, rtSend}, layerNetmodel},
		{"scheme package", []frame{uclWire, deliver}, layerSchemes},
		{"static meridian", []frame{meridian, harness}, layerSchemes},
		{"p2p protocol file", []frame{expand, deliver}, layerSchemes},
		{"ring hash", []frame{hashKey, learn}, layerChord},
		{"harness", []frame{harness, engineRun}, layerExperiments},
		{"generic engine", []frame{engineRun, goexit}, layerExperiments},
		{"oracle", []frame{nearest, harness}, layerExperiments},
		{"obs hook in send path", []frame{obsSend, rtSend}, layerP2PRuntime},
		{"udp transport", []frame{udpSend, deliver}, layerLive},
		{"event loop", []frame{liveRun, goexit}, layerLive},
		{"codec self", []frame{encode, udpSend}, layerCodec},
		{"json under codec", []frame{lib("encoding/json.(*encodeState).reflectValue"), lib("encoding/json.Marshal"), encode}, layerCodec},
		{"reflect under json", []frame{lib("reflect.Value.Field"), lib("encoding/json.structEncoder.encode"), encode}, layerCodec},
		{"reflect under fmt is the caller's", []frame{lib("reflect.Value.Int"), lib("fmt.(*pp).printValue"), lib("fmt.Sprintf"), harness}, layerExperiments},
		{"strconv under json", []frame{lib("strconv.AppendInt"), lib("encoding/json.intEncoder"), encode}, layerCodec},
		{"sendto", []frame{lib("internal/runtime/syscall.Syscall6"), lib("syscall.Syscall6"), lib("syscall.sendto"), lib("internal/poll.(*FD).WriteToInet4"), lib("net.(*UDPConn).WriteToUDP"), udpSend}, layerSyscall},
		{"recvfrom", []frame{lib("syscall.recvfrom"), lib("internal/poll.(*FD).ReadFromInet4"), lib("net.(*UDPConn).ReadFromUDP"), readLoop}, layerSyscall},
		{"map read", []frame{rt("mapaccess2_faststr"), deliver, simStep}, layerGoMap},
		{"swiss map", []frame{lib("internal/runtime/maps.(*Map).getWithKey"), rt("mapaccess2_fast64"), learn}, layerGoMap},
		{"string hash", []frame{rt("memhash"), rt("strhash"), rt("mapaccess1_faststr"), deliver}, layerGoMap},
		{"alloc under map growth", []frame{rt("mallocgc"), lib("internal/runtime/maps.(*table).grow"), rt("mapassign_fast64"), learn}, layerGoGCAlloc},
		{"memclr under malloc", []frame{rt("memclrNoHeapPointers"), rt("mallocgc"), rt("growslice"), simStep}, layerGoGCAlloc},
		{"slice growth", []frame{rt("memmove"), rt("growslice"), learn}, layerGoGCAlloc},
		{"background mark", []frame{rt("scanobject"), rt("gcDrain"), rt("gcBgMarkWorker.func2"), rt("systemstack"), rt("gcBgMarkWorker"), goexit}, layerGoGCAlloc},
		{"write barrier", []frame{rt("gcWriteBarrier2"), learn}, layerGoGCAlloc},
		{"futex wake", []frame{rt("futex"), rt("futexwakeup"), rt("notewakeup"), rt("startm"), rt("wakep"), rt("ready"), rt("goready"), rt("chansend"), benchMain}, layerGoSched},
		{"idle scheduler", []frame{rt("futex"), rt("futexsleep"), rt("notesleep"), rt("stopm"), rt("findRunnable"), rt("schedule"), rt("park_m"), rt("mcall")}, layerGoSched},
		{"netpoll", []frame{lib("internal/runtime/syscall.EpollWait"), rt("netpoll"), rt("findRunnable"), rt("schedule")}, layerGoSched},
		{"channel receive", []frame{rt("chanrecv"), rt("chanrecv1"), benchMain}, layerGoSched},
		{"mutex slow path", []frame{rt("lock2"), rt("lockWithRank"), rt("chansend"), liveRun}, layerGoSched},
		{"memmove is the caller's", []frame{rt("memmove"), rtSend, simStep}, layerP2PRuntime},
		{"interface conversion is the caller's", []frame{rt("convT64"), learn}, layerChord},
		{"sort is the caller's", []frame{lib("sort.insertionSort_func"), lib("sort.Slice"), learn}, layerChord},
		{"sync is the caller's", []frame{lib("sync.(*Mutex).Lock"), fr("nearestpeer/internal/p2p.(*liveLoop).post", repo+"p2p/live.go")}, layerLive},
		{"time is the caller's", []frame{rt("nanotime"), lib("time.Now"), benchMain}, layerOther},
		{"bench driver", []frame{benchMain, goexit}, layerOther},
		{"runtime only", []frame{rt("nanotime"), rt("main"), goexit}, layerOther},
		{"empty stack", nil, layerOther},
	} {
		if got := layerOf(c.stack); got != c.want {
			t.Errorf("%s: layerOf = %s, want %s", c.name, got, c.want)
		}
	}
}
