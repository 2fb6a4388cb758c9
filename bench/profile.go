package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"path"
	"strings"
)

// This file is the traced pass's outside view: a reader for the gzipped
// protobuf CPU profiles runtime/pprof writes (just the fields the
// attribution needs — no dependency beyond the standard library), and the
// table that charges each sample's self time to one of this repository's
// layers.

// frame is one function on a sampled stack.
type frame struct {
	fn   string // fully qualified Go symbol, e.g. nearestpeer/internal/p2p.(*Chord).learn
	file string // source file path as the compiler recorded it
}

// stackSample is one profile sample: frames leaf-first (inlined callees
// expanded) and the number of profiler ticks that hit this stack.
type stackSample struct {
	frames []frame
	count  int64
}

// ---- a minimal protobuf wire reader ----

type pbuf struct {
	b   []byte
	err error
}

func (p *pbuf) varint() uint64 {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(p.b) == 0 {
			p.err = io.ErrUnexpectedEOF
			return 0
		}
		c := p.b[0]
		p.b = p.b[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v
		}
	}
	p.err = errors.New("pprof: varint overflows 64 bits")
	return 0
}

func (p *pbuf) bytes() []byte {
	n := p.varint()
	if p.err != nil {
		return nil
	}
	if n > uint64(len(p.b)) {
		p.err = io.ErrUnexpectedEOF
		return nil
	}
	out := p.b[:n]
	p.b = p.b[n:]
	return out
}

// each walks the fields of one message, handing varint fields to onVarint
// and length-delimited fields to onBytes (either may be nil to skip).
func (p *pbuf) each(onVarint func(field int, v uint64), onBytes func(field int, b []byte)) {
	for len(p.b) > 0 && p.err == nil {
		key := p.varint()
		field, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v := p.varint()
			if onVarint != nil {
				onVarint(field, v)
			}
		case 1:
			if len(p.b) < 8 {
				p.err = io.ErrUnexpectedEOF
				return
			}
			p.b = p.b[8:]
		case 2:
			b := p.bytes()
			if onBytes != nil && p.err == nil {
				onBytes(field, b)
			}
		case 5:
			if len(p.b) < 4 {
				p.err = io.ErrUnexpectedEOF
				return
			}
			p.b = p.b[4:]
		default:
			p.err = fmt.Errorf("pprof: unsupported wire type %d", wire)
		}
	}
}

// packedVarints decodes the packed form of a repeated integer field.
func packedVarints(b []byte) ([]uint64, error) {
	p := pbuf{b: b}
	var out []uint64
	for len(p.b) > 0 && p.err == nil {
		out = append(out, p.varint())
	}
	return out, p.err
}

// parseProfile decodes a runtime/pprof CPU profile (gzipped or raw
// protobuf) into stack samples. The tick count is sample value 0
// ("samples/count"); zero-count samples are dropped.
func parseProfile(data []byte) ([]stackSample, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("pprof: gunzip: %w", err)
		}
		raw, err := io.ReadAll(zr)
		if err != nil {
			return nil, fmt.Errorf("pprof: gunzip: %w", err)
		}
		data = raw
	}

	type line struct{ fn uint64 }
	type function struct{ name, file uint64 }
	var (
		strs      []string
		functions = map[uint64]function{}
		locations = map[uint64][]line{}
		rawStacks [][]uint64
		counts    []int64
	)
	var firstErr error
	note := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	top := pbuf{b: data}
	top.each(nil, func(field int, b []byte) {
		switch field {
		case 2: // Sample
			var locs []uint64
			var vals []uint64
			m := pbuf{b: b}
			m.each(func(f int, v uint64) {
				switch f {
				case 1:
					locs = append(locs, v)
				case 2:
					vals = append(vals, v)
				}
			}, func(f int, pb []byte) {
				switch f {
				case 1:
					vs, err := packedVarints(pb)
					note(err)
					locs = append(locs, vs...)
				case 2:
					vs, err := packedVarints(pb)
					note(err)
					vals = append(vals, vs...)
				}
			})
			note(m.err)
			if len(vals) > 0 && vals[0] > 0 {
				rawStacks = append(rawStacks, locs)
				counts = append(counts, int64(vals[0]))
			}
		case 4: // Location
			var id uint64
			var lines []line
			m := pbuf{b: b}
			m.each(func(f int, v uint64) {
				if f == 1 {
					id = v
				}
			}, func(f int, lb []byte) {
				if f != 4 {
					return
				}
				var l line
				lm := pbuf{b: lb}
				lm.each(func(lf int, v uint64) {
					if lf == 1 {
						l.fn = v
					}
				}, nil)
				note(lm.err)
				lines = append(lines, l)
			})
			note(m.err)
			locations[id] = lines
		case 5: // Function
			var id uint64
			var fn function
			m := pbuf{b: b}
			m.each(func(f int, v uint64) {
				switch f {
				case 1:
					id = v
				case 2:
					fn.name = v
				case 4:
					fn.file = v
				}
			}, nil)
			note(m.err)
			functions[id] = fn
		case 6: // string_table
			strs = append(strs, string(b))
		}
	})
	note(top.err)
	if firstErr != nil {
		return nil, firstErr
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	out := make([]stackSample, len(rawStacks))
	for i, locs := range rawStacks {
		s := stackSample{count: counts[i]}
		for _, loc := range locs {
			// Within a location the first line is the innermost inlined
			// callee and the last the function it was inlined into, which
			// is already leaf-first order.
			for _, l := range locations[loc] {
				fn := functions[l.fn]
				s.frames = append(s.frames, frame{fn: str(fn.name), file: str(fn.file)})
			}
		}
		out[i] = s
	}
	return out, nil
}

// ---- leaf → layer ----

// The layers CPU self time is charged to. The first nine are this
// repository's packages grouped as the issue groups them; the three go_*
// layers are Go-runtime services whose cost an optimisation can move
// (hashing, allocation, scheduling) and so must not hide inside a caller.
const (
	layerSim         = "cpu.sim"
	layerNetmodel    = "cpu.netmodel"
	layerP2PRuntime  = "cpu.p2p_runtime"
	layerChord       = "cpu.chord"
	layerSchemes     = "cpu.schemes"
	layerExperiments = "cpu.experiments"
	layerCodec       = "cpu.codec"
	layerLive        = "cpu.live"
	layerSyscall     = "cpu.syscall"
	layerGoMap       = "cpu.go_map"
	layerGoGCAlloc   = "cpu.go_gc_alloc"
	layerGoSched     = "cpu.go_sched"
	layerOther       = "cpu.other"
)

var cpuLayers = []string{
	layerSim, layerNetmodel, layerP2PRuntime, layerChord, layerSchemes,
	layerExperiments, layerCodec, layerLive, layerSyscall,
	layerGoMap, layerGoGCAlloc, layerGoSched, layerOther,
}

// pkgOf returns the import path of a Go symbol: everything before the
// first dot after the last slash. Type arguments of generic instantiations
// contain slashes and dots of their own, so they are cut off first.
func pkgOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// modulePkgLayer maps this module's packages (import path below
// nearestpeer/internal/) to a layer. p2p is split by file in layerOfFrame.
var modulePkgLayer = map[string]string{
	"sim":      layerSim,
	"netmodel": layerNetmodel, "latency": layerNetmodel,
	"dht":         layerChord,
	"experiments": layerExperiments, "engine": layerExperiments, "overlay": layerExperiments,
	"measure": layerExperiments, "stats": layerExperiments, "rng": layerExperiments,
}

// p2pFileLayer splits internal/p2p by source file: the package holds the
// runtime, two transports, the codec and three protocols.
var p2pFileLayer = map[string]string{
	"chord.go":  layerChord,
	"expand.go": layerSchemes, "meridian.go": layerSchemes,
	"codec.go": layerCodec,
	"live.go":  layerLive, "udp.go": layerLive, "loopback.go": layerLive,
}

// Prefixes of Go-runtime function names (package prefix removed) that put a
// sample in a go_* layer. Only entry points and a few families are listed:
// layerOf walks the whole run of runtime frames at the leaf, so a sample
// deep inside the allocator or the collector is claimed when the walk
// reaches the entry point above it (memclrNoHeapPointers ← mallocgc,
// scanobject ← gcDrain ← gcBgMarkWorker).
var (
	goMapPrefixes = []string{
		"map", "memhash", "strhash", "aeshash", "interhash", "nilinterhash", "typehash",
	}
	goGCAllocPrefixes = []string{
		"malloc", "newobject", "newarray", "makeslice", "growslice", "makemap", "makechan",
		"gc", "bgsweep", "bgscavenge", "sweepone", "scanobject", "greyobject", "markroot",
		"wbBufFlush", "wbZero", "wbMove", "bulkBarrierPreWrite", "deductAssistCredit",
		"concatstring", "slicebytetostring", "stringtoslicebyte", "rawstring", "rawbyteslice",
		"newstack", "morestack", "copystack",
		"(*mheap)", "(*mcache)", "(*mcentral)", "(*mspan)", "(*pageAlloc)", "(*gcWork)",
	}
	goSchedPrefixes = []string{
		"schedule", "findRunnable", "park_m", "mcall", "gopark", "goready", "ready", "goyield",
		"gosched", "Gosched", "execute", "gogo", "futex", "note", "stopm", "startm", "wakep",
		"mPark", "runq", "globrunq", "stealWork", "resetspinning", "injectglist", "handoffp",
		"acquirep", "releasep", "pidle", "casgstatus", "dropg", "newproc", "mstart",
		"netpoll", "epoll", "(*pollDesc)", "usleep", "osyield", "nanosleep", "timeSleep",
		"checkTimers", "runtimer", "(*timer",
		"lock", "unlock", "procyield", "sema", "notifyList",
		"chansend", "chanrecv", "selectgo", "closechan",
		"exitsyscall", "entersyscall", "reentersyscall",
		"sig", "tgkill", "asyncPreempt", "preempt", "suspendG", "resumeG", "sysmon", "retake",
	}
)

// runtimeLeafLayer classifies a Go-runtime function into one of the three
// go_* layers, or "" when it is plumbing (memmove, interface conversion,
// nanotime, systemstack…) whose cost belongs to whoever called it.
func runtimeLeafLayer(pkg, fn string) string {
	if pkg == "internal/runtime/maps" {
		return layerGoMap
	}
	name := strings.TrimPrefix(fn, pkg+".")
	hasAny := func(prefixes []string) bool {
		for _, p := range prefixes {
			if strings.HasPrefix(name, p) {
				return true
			}
		}
		return false
	}
	switch {
	case hasAny(goMapPrefixes):
		return layerGoMap
	case hasAny(goGCAllocPrefixes):
		return layerGoGCAlloc
	case hasAny(goSchedPrefixes):
		return layerGoSched
	}
	return ""
}

// isRuntimePkg reports whether pkg is part of the Go runtime proper: frames
// there are either a go_* layer or transparent plumbing.
func isRuntimePkg(pkg string) bool {
	return pkg == "runtime" || strings.HasPrefix(pkg, "runtime/internal/") ||
		strings.HasPrefix(pkg, "internal/runtime/") || pkg == "internal/abi" ||
		pkg == "internal/bytealg" || pkg == "internal/cpu" || pkg == "internal/chacha8rand" ||
		pkg == "internal/goarch" || pkg == "internal/race"
}

// layerOfFrame classifies one non-runtime frame, or returns "" for
// general-purpose library code (sort, strings, fmt, sync, time…) that works
// on behalf of its caller, so the walk continues upward.
func layerOfFrame(f frame) string {
	pkg := pkgOf(f.fn)
	if rest, ok := strings.CutPrefix(pkg, "nearestpeer/internal/"); ok {
		if rest == "p2p" {
			if l, ok := p2pFileLayer[path.Base(f.file)]; ok {
				return l
			}
			return layerP2PRuntime // runtime, node, wire, policy, churn, fault transport
		}
		if l, ok := modulePkgLayer[rest]; ok {
			return l
		}
		if rest == "obs" || rest == "faults" {
			return layerP2PRuntime // hooks that run inside the send path
		}
		return layerSchemes // every other protocol package
	}
	switch {
	case pkg == "encoding/json":
		// reflect, strconv and base64 beneath it are passed over as
		// library code and so land here too; reflect beneath fmt does not.
		return layerCodec
	case pkg == "syscall" || pkg == "net" || pkg == "net/netip" || pkg == "internal/poll":
		return layerSyscall
	case pkg == "main" || strings.HasPrefix(pkg, "nearestpeer"):
		return layerOther // the benchmark's own driver code, cmd/ and examples
	}
	return ""
}

// layerOf charges one stack's self time to a layer, looking only at the
// leaf and what it was working for. Runtime frames at the leaf are
// inspected innermost-first: a map, allocation/GC or scheduler function
// claims the sample for its go_* layer; other runtime plumbing is passed
// over. The first frame above that names a layer gets the sample; a stack
// that never leaves the runtime and library code is cpu.other.
func layerOf(frames []frame) string {
	i := 0
	for ; i < len(frames); i++ {
		pkg := pkgOf(frames[i].fn)
		if !isRuntimePkg(pkg) {
			break
		}
		if l := runtimeLeafLayer(pkg, frames[i].fn); l != "" {
			return l
		}
	}
	for ; i < len(frames); i++ {
		if l := layerOfFrame(frames[i]); l != "" {
			return l
		}
	}
	return layerOther
}

// cpuShares attributes every sample and returns each layer's share of the
// total tick count (shares sum to 1) plus the total.
func cpuShares(samples []stackSample) (map[string]float64, int64) {
	ticks := map[string]int64{}
	var total int64
	for _, s := range samples {
		ticks[layerOf(s.frames)] += s.count
		total += s.count
	}
	shares := make(map[string]float64, len(cpuLayers))
	for _, l := range cpuLayers {
		if total > 0 {
			shares[l] = float64(ticks[l]) / float64(total)
		} else {
			shares[l] = 0
		}
	}
	return shares, total
}
