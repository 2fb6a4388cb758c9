// Package engine fans independent simulation trials out across a worker
// pool and merges their results deterministically.
//
// Every experiment in this repository is a batch of independent trials — a
// (matrix, overlay, query-stream) simulation per figure point, a wire
// condition per study row, an (algorithm, population) cell of the scale
// study. Trials share nothing mutable: each gets its own random stream
// (split from the run seed by trial index), its own discrete-event kernel,
// and whatever matrix or topology handle the caller passes in, which must be
// read-only (the netmodel Topology and the latency matrices are).
//
// Determinism is the contract: results land in a slice indexed by trial,
// a trial's randomness derives only from data the trial was handed —
// either the Trial's own (seed, index)-derived stream, or per-trial seeds
// the study computes from its experiment parameters (the ported figures do
// the latter to stay byte-compatible with their serial versions; both
// styles are schedule-independent) — and nothing a trial computes depends
// on which worker ran it or in what order trials finished. The same seed
// therefore produces byte-identical figures at -workers=1 and -workers=64;
// the worker count buys wall-clock time, never different numbers.
package engine

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"nearestpeer/internal/rng"
	"nearestpeer/internal/sim"
)

// Trial is the per-trial context handed to a trial function: everything a
// trial needs that must not be shared with its siblings.
type Trial struct {
	// Index is the trial's position in the batch, [0, n).
	Index int
	// Seed is the per-trial seed, derived from (run seed, Index). New
	// trial code should seed its sub-systems (a topology build, a
	// protocol instance) from it; studies ported from serial loops may
	// instead keep their historical per-trial seed arithmetic — equally
	// deterministic, and byte-compatible with their pre-engine output.
	Seed int64
	// RNG is an independent random stream for the trial, split from the
	// run seed by Index. Two trials' streams never overlap.
	RNG *rng.Source
	// Kernel is a fresh discrete-event kernel owned by this trial alone.
	// The sim kernel is not safe for concurrent use, so a trial must never
	// touch another trial's kernel — this one exists so it never has to.
	Kernel *sim.Sim
}

// Config parameterises one Run: how wide to fan out and which seed the
// per-trial streams derive from.
type Config struct {
	// Workers is the worker-pool width. 0 means the package default (see
	// SetWorkers), which itself defaults to GOMAXPROCS. The pool is always
	// clamped to the trial count; 1 runs the batch inline on the calling
	// goroutine.
	Workers int
	// Seed is the run seed every per-trial stream derives from.
	Seed int64
	// Label namespaces the per-trial rng split (default "trial"), so two
	// engine runs inside one study with the same seed still draw
	// independent streams.
	Label string
}

// defaultWorkers is the process-wide pool width used when Config.Workers is
// zero; 0 here means GOMAXPROCS. cmd/npsim and cmd/figures set it from
// their -workers flag.
var defaultWorkers atomic.Int64

// SetWorkers sets the process-wide default pool width used when a Config
// leaves Workers zero. n <= 0 restores the GOMAXPROCS default. It returns
// the previous setting (0 when the default was GOMAXPROCS).
func SetWorkers(n int) int {
	if n < 0 {
		n = 0
	}
	return int(defaultWorkers.Swap(int64(n)))
}

// Workers resolves a requested pool width: explicit > 0 wins, then the
// SetWorkers default, then GOMAXPROCS.
func Workers(requested int) int {
	if requested > 0 {
		return requested
	}
	if d := int(defaultWorkers.Load()); d > 0 {
		return d
	}
	return runtime.GOMAXPROCS(0)
}

// defaultShards is the process-wide intra-trial shard count for studies
// whose cells run on a sharded kernel; 1 (the zero default) keeps cells
// single-shard. cmd/npsim and cmd/figures set it from their -shards flag.
var defaultShards atomic.Int64

// SetShards sets the process-wide shard count. n <= 1 restores the
// single-shard default. It returns the previous setting.
func SetShards(n int) int {
	if n < 1 {
		n = 1
	}
	prev := int(defaultShards.Swap(int64(n)))
	if prev < 1 {
		prev = 1
	}
	return prev
}

// Shards returns the process-wide shard count (at least 1). The figure
// bytes are shard-count-invariant by the sharded kernel's determinism
// contract; only wall-clock changes.
func Shards() int {
	if d := int(defaultShards.Load()); d > 1 {
		return d
	}
	return 1
}

// TrialPanic is what Run re-raises on the calling goroutine when a trial
// panics: the original panic value plus the failing trial's stack, so
// neither the value's type (callers may type-switch in recover) nor the
// file/line inside the trial is lost to the worker goroutine.
type TrialPanic struct {
	// Index is the failing trial's index.
	Index int
	// Value is the original panic value, unmodified.
	Value any
	// Stack is the failing goroutine's stack captured at recover time.
	Stack []byte
}

// Error formats the panic with the trial's own stack trace.
func (p *TrialPanic) Error() string {
	return fmt.Sprintf("engine: trial %d panicked: %v\n%s", p.Index, p.Value, p.Stack)
}

// Run executes n independent trials of fn across the configured worker pool
// and returns their results in trial order. fn must be a pure function of
// its Trial (plus read-only shared state closed over by the caller): it runs
// concurrently with its siblings and must not touch their state. A panic in
// any trial is re-raised on the calling goroutine after the pool drains, so
// a failing trial cannot be silently swallowed by a worker goroutine.
func Run[T any](cfg Config, n int, fn func(*Trial) T) []T {
	if n <= 0 {
		return nil
	}
	label := cfg.Label
	if label == "" {
		label = "trial"
	}
	src := rng.New(cfg.Seed)
	newTrial := func(i int) *Trial {
		s := src.SplitN(label, i)
		return &Trial{Index: i, Seed: s.Seed(), RNG: s, Kernel: sim.New()}
	}
	results := make([]T, n)
	workers := Workers(cfg.Workers)
	if s := Shards(); s > 1 {
		// A sharded cell runs min(s, GOMAXPROCS) threads inside one trial:
		// the sim.Sharded coordinator (this pool worker) plus
		// min(s, GOMAXPROCS)-1 barrier workers that spin between windows,
		// so each counts as a busy thread. Splitting the pool keeps the
		// total at floor(workers/s)·min(s, GOMAXPROCS) <= workers. Only a
		// budget below the shard count exceeds it — one trial, the
		// -shards request itself, and still at most GOMAXPROCS threads.
		workers = workers / s
		if workers < 1 {
			workers = 1
		}
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			results[i] = fn(newTrial(i))
		}
		return results
	}

	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		panicMu  sync.Mutex
		panicked *TrialPanic
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				func() {
					defer func() {
						if r := recover(); r != nil {
							stack := debug.Stack()
							panicMu.Lock()
							// Keep the lowest-index panic: it is the one a
							// serial run would have hit first. Trials are
							// claimed in index order, so any lower-index
							// panic is already in flight and will be
							// captured before wg.Wait returns.
							if panicked == nil || i < panicked.Index {
								panicked = &TrialPanic{Index: i, Value: r, Stack: stack}
							}
							panicMu.Unlock()
							// Cancel unclaimed trials: finishing a
							// multi-minute batch after a trial has already
							// failed only delays the re-panic.
							next.Store(int64(n))
						}
					}()
					results[i] = fn(newTrial(i))
				}()
			}
		}()
	}
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
	return results
}

// Map runs fn once per item across the worker pool and returns the outputs
// in item order: the fan-out shape every ported study uses (conditions in,
// rows out). The determinism contract of Run applies unchanged.
func Map[In, Out any](cfg Config, items []In, fn func(*Trial, In) Out) []Out {
	return Run(cfg, len(items), func(t *Trial) Out {
		return fn(t, items[t.Index])
	})
}
