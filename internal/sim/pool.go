package sim

import "sync"

// Pool is a bounded pool of persistent workers for fanning one batch of
// shard tasks out per per-link phase of the network simulator. The simulator
// calls Run thousands of times per simulated second, so workers are spawned
// once and fed over a channel rather than paying a goroutine spawn per phase.
//
// A nil *Pool is valid and runs every batch in order on the caller, which is
// how an unsharded network runs its one task per phase. Each task works on
// its own run of links, and the caller folds their outputs in an order-free
// way afterwards, so serial and pooled execution produce bit-identical
// results.
type Pool struct {
	tasks chan func()
	wg    sync.WaitGroup
	done  sync.WaitGroup
}

// NewPool starts a pool with the given number of workers (minimum 1).
func NewPool(workers int) *Pool {
	if workers < 1 {
		workers = 1
	}
	p := &Pool{tasks: make(chan func())}
	p.done.Add(workers)
	for i := 0; i < workers; i++ {
		go func() {
			defer p.done.Done()
			for fn := range p.tasks {
				fn()
				p.wg.Done()
			}
		}()
	}
	return p
}

// Run executes every task and returns when all have finished. Tasks must not
// themselves call Run. On a nil pool the tasks run serially in order.
func (p *Pool) Run(fns []func()) {
	if p == nil {
		for _, fn := range fns {
			fn()
		}
		return
	}
	p.wg.Add(len(fns))
	for _, fn := range fns {
		p.tasks <- fn
	}
	p.wg.Wait()
}

// Close stops the workers. Run must not be called after Close.
func (p *Pool) Close() {
	if p == nil {
		return
	}
	close(p.tasks)
	p.done.Wait()
}
