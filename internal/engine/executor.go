package engine

import (
	"context"
	"runtime"
	"sync"

	"spgcmp/internal/core"
)

// Executor schedules the independent cells of a campaign run. Execute must
// call run(i) exactly once for every index in [0, n) that it starts, from any
// number of goroutines (run is safe for concurrent use), and returns once
// every started cell has finished. A cancelled context stops the executor
// from starting further cells; Execute then returns the context's error after
// draining the in-flight ones, leaving unstarted cells untouched.
//
// engine.Run recognizes its two implementations — the in-process
// PoolExecutor and the cluster Dispatcher — and hands any other Executor the
// plain index space; the cells are self-contained specs, so where run(i)
// executes never affects the result.
type Executor interface {
	Execute(ctx context.Context, n int, run func(i int)) error
}

// PoolExecutor runs cells on an in-process worker pool.
type PoolExecutor struct {
	// Workers caps the number of concurrent cells; 0 means GOMAXPROCS.
	// Results are bit-identical at any worker count (see the engine
	// determinism tests), so the knob trades memory for throughput only.
	Workers int
}

// Execute implements Executor: ExecuteScratch without the arena.
func (p *PoolExecutor) Execute(ctx context.Context, n int, run func(i int)) error {
	return p.ExecuteScratch(ctx, n, func(i int, _ *core.Scratch) { run(i) })
}

// ExecuteScratch is Execute with a per-worker solver arena threaded into
// each run call: every worker goroutine owns one core.Scratch for its
// lifetime and resets it after every cell, so run must not let arena-backed
// memory outlive its return. An arena nobody allocates from stays empty.
// Scratch placement never affects results — the arenas only move
// allocations, Scratch's documented determinism contract.
func (p *PoolExecutor) ExecuteScratch(ctx context.Context, n int, run func(i int, sc *core.Scratch)) error {
	workers := p.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		sc := core.NewScratch()
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			run(i, sc)
			sc.Reset()
		}
		return ctx.Err()
	}
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sc := core.NewScratch()
			for i := range next {
				run(i, sc)
				sc.Reset()
			}
		}()
	}
feed:
	for i := 0; i < n; i++ {
		select {
		case next <- i:
		case <-ctx.Done():
			break feed
		}
	}
	close(next)
	wg.Wait()
	return ctx.Err()
}
