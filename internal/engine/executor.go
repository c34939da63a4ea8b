package engine

import (
	"context"
	"runtime"
	"sync"

	"spgcmp/internal/core"
)

// Executor runs the in-process cells of a campaign. ExecuteScratch must call
// run(i, sc) exactly once for every index in [0, n) that it starts, from any
// number of goroutines (run is safe for concurrent use), with an arena sc
// owned by the calling goroutine for the duration of the call, and returns
// once every started cell has finished. run must not let arena-backed memory
// outlive its return; the executor may reset sc afterwards. A cancelled
// context stops the executor from starting further cells; ExecuteScratch
// then returns the context's error after draining the in-flight ones,
// leaving unstarted cells untouched.
//
// Every local cell of engine.Run goes through this one call: campaigns
// without a dispatcher, and a Dispatcher's no-worker path and fallen-back
// chunks. Scratch placement never affects results — the arenas only move
// allocations, Scratch's documented determinism contract.
type Executor interface {
	ExecuteScratch(ctx context.Context, n int, run func(i int, sc *core.Scratch)) error
}

// PoolExecutor runs cells on an in-process worker pool: every worker
// goroutine owns one core.Scratch for its lifetime and resets it after every
// cell, so a warmed worker solves cells without kernel allocations. An arena
// nobody allocates from stays empty.
type PoolExecutor struct {
	// Workers caps the number of concurrent cells; 0 means GOMAXPROCS.
	// Results are bit-identical at any worker count (see the engine
	// determinism tests), so the knob trades memory for throughput only.
	Workers int
}

// ExecuteScratch implements Executor.
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
		// A select between a ready worker and a dead context picks either;
		// the check keeps a cancelled run from starting further cells.
		if ctx.Err() != nil {
			break
		}
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
