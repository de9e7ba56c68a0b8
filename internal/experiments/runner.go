package experiments

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"macaw/internal/core"
	"macaw/internal/topo"
)

// Runner executes independent simulation runs on a bounded pool of worker
// goroutines. Every run builds its own core.Network from the RunConfig seed
// — its own Simulator, medium, and per-station RNG streams — so each is a
// pure function of (layout, factory, config). The runs share only the
// package's core.Spares, under its mutex: a run takes over storage another
// has released, which changes no value it computes. Parallel
// execution therefore changes only wall-clock order: the results, and any
// output rendered from them, are byte-identical to a serial run.
//
// A run that panics (an oracle violation, a watchdog abort, a rejected
// delta) does not take the process down from a worker goroutine: the
// failure is captured as a RunFailure naming the (table, seed) that died,
// runs already executing drain normally, queued runs are cancelled, and
// Tables returns the failure as an error.
type Runner struct {
	// sem bounds the number of runs executing at once. Generators submit
	// every run before waiting on the first, and waiters never hold a
	// slot, so the pool cannot deadlock however small it is.
	sem chan struct{}

	// failure holds the first run failure; once set, queued runs are
	// skipped instead of started.
	failure atomic.Pointer[RunFailure]
}

// RunFailure identifies a run that panicked under the pool.
type RunFailure struct {
	// Table is the run-label prefix of the generator that died ("" for an
	// unprefixed run).
	Table string
	// Seed is the dead run's seed.
	Seed int64
	// Err is the recovered panic value; Stack the goroutine stack at the
	// point of panic.
	Err   any
	Stack []byte
}

// Error renders the failure with its (table, seed) identity first.
func (f *RunFailure) Error() string {
	table := f.Table
	if table == "" {
		table = "(unlabelled)"
	}
	return fmt.Sprintf("run failed in table %s, seed %d: %v", table, f.Seed, f.Err)
}

// Failure returns the first recorded run failure, or nil.
func (r *Runner) Failure() *RunFailure {
	if r == nil {
		return nil
	}
	return r.failure.Load()
}

// fail records f as the pool's failure if none is recorded yet.
func (r *Runner) fail(f *RunFailure) {
	r.failure.CompareAndSwap(nil, f)
}

// NewRunner returns a Runner executing at most jobs runs concurrently.
// jobs < 1 is treated as 1, and the effective count is capped at
// runtime.NumCPU(): the runs are CPU-bound, so workers beyond the core
// count only add scheduling and synchronization overhead — on a one-core
// machine, enough to make "-jobs 4" slower than serial.
func NewRunner(jobs int) *Runner {
	if jobs < 1 {
		jobs = 1
	}
	if n := runtime.NumCPU(); jobs > n {
		jobs = n
	}
	return &Runner{sem: make(chan struct{}, jobs)}
}

// Jobs reports the runner's effective concurrency after capping.
func (r *Runner) Jobs() int { return cap(r.sem) }

// WithRunner returns a copy of cfg whose runs are dispatched through r. A
// nil r keeps the serial path: runs execute inline at their submission
// point, in exactly the order the generator code states them.
func (cfg RunConfig) WithRunner(r *Runner) RunConfig {
	cfg.runner = r
	return cfg
}

// Do executes fn under a pool slot, blocking until a worker frees up or ctx
// is cancelled. It is the context-aware submission path long-running callers
// (the campaign daemon) use: a cancellation while queued returns ctx.Err()
// without running fn, so a drained or cancelled campaign stops consuming
// workers the moment its context dies, while runs already executing finish
// normally. A panic inside fn is recovered into a *RunFailure naming the
// (table, seed) that died and returned as the error — it is NOT latched as
// the pool's first failure, because independent submissions (unlike the runs
// of one table sweep) must not cancel each other.
func (r *Runner) Do(ctx context.Context, table string, seed int64, fn func()) (err error) {
	select {
	case r.sem <- struct{}{}:
	case <-ctx.Done():
		return ctx.Err()
	}
	defer func() {
		<-r.sem
		if p := recover(); p != nil {
			err = &RunFailure{Table: table, Seed: seed, Err: p, Stack: debug.Stack()}
		}
	}()
	fn()
	return nil
}

// future is the pending value of a dispatched run.
type future[T any] struct {
	done chan struct{}
	val  T
}

// wait blocks until the run completes and returns its value.
func (f *future[T]) wait() T {
	if f.done != nil {
		<-f.done
	}
	return f.val
}

// goFuture dispatches fn according to cfg. With no runner it calls fn inline
// and returns an already-resolved future — the serial path is the exact
// pre-runner execution order, not a degenerate pool. With a runner, fn runs
// on a pooled goroutine; the caller keeps submitting and waits later. A
// panicking fn resolves its future to the zero value and records the first
// RunFailure on the pool; once one run has failed, queued runs resolve to
// zero without starting (cancelled), while runs already executing finish.
func goFuture[T any](cfg RunConfig, fn func() T) *future[T] {
	if cfg.runner == nil {
		return &future[T]{val: fn()}
	}
	f := &future[T]{done: make(chan struct{})}
	go func() {
		cfg.runner.sem <- struct{}{}
		defer func() {
			if p := recover(); p != nil {
				cfg.runner.fail(&RunFailure{
					Table: cfg.table, Seed: cfg.Seed, Err: p, Stack: debug.Stack(),
				})
			}
			<-cfg.runner.sem
			close(f.done)
		}()
		if cfg.runner.Failure() == nil {
			f.val = fn()
		}
	}()
	return f
}

// goRun dispatches the standard build-layout-and-run shape (the future twin
// of runLayout). name labels the run in the metrics and trace sinks.
func (cfg RunConfig) goRun(name string, l topo.Layout, f core.MACFactory, mods ...func(*core.Network)) *future[core.Results] {
	return goFuture(cfg, func() core.Results { return runLayout(cfg, name, l, f, mods...) })
}

// Tables runs the generators — concurrently across and within tables — and
// returns the finished tables in generator order. Seeds travel inside cfg,
// fixed before any dispatch, so the output is byte-identical to calling
// g.Run(cfg) serially for each generator. When the runner's effective
// concurrency is 1 (one core, or -jobs 1) the pool is skipped entirely:
// generators execute inline, one after another, with zero goroutine or
// channel overhead — a degenerate pool would serialize the same work
// through futures and cost wall-clock for nothing.
//
// If any run fails, Tables still drains every in-flight run (completed
// sibling results are kept), then returns the tables produced so far
// together with a *RunFailure error naming the (table, seed) that died.
func (r *Runner) Tables(gens []Generator, cfg RunConfig) ([]Table, error) {
	out := make([]Table, len(gens))
	if r.Jobs() <= 1 {
		for i, g := range gens {
			tab, err := r.runTable(g, cfg)
			if err != nil {
				return out[:i], err
			}
			out[i] = tab
		}
		return out, nil
	}
	cfg = cfg.WithRunner(r)
	var wg sync.WaitGroup
	for i, g := range gens {
		wg.Add(1)
		go func(i int, g Generator) {
			defer wg.Done()
			out[i], _ = r.runTable(g, cfg)
		}(i, g)
	}
	wg.Wait()
	if f := r.Failure(); f != nil {
		return out, f
	}
	return out, nil
}

// runTable executes one generator, converting a panic on this goroutine
// (generator code outside any pooled run, or an inline serial run) into the
// same RunFailure shape pooled workers record.
func (r *Runner) runTable(g Generator, cfg RunConfig) (tab Table, err error) {
	defer func() {
		if p := recover(); p != nil {
			f := &RunFailure{Table: g.ID, Seed: cfg.Seed, Err: p, Stack: debug.Stack()}
			r.fail(f)
			err = f
		}
	}()
	return g.Run(cfg.ForTable(g.ID)), nil
}
