// Package par provides the deterministic parallel execution substrate
// for the tick engine: a persistent worker pool plus pre-built task
// groups executed with barrier semantics once per simulated phase.
//
// Determinism contract: a Group's tasks must be mutually independent
// (shard-owned state only; cross-shard effects restricted to commutative
// atomic updates whose results are not observed until after Run
// returns). Under that contract Run produces state identical to running
// the tasks sequentially in slice order — which is exactly what happens
// when the pool is nil or sized for a single worker, so `-workers 1`
// executes the same statements in the same order as the pre-parallel
// engine.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// MaxDefaultWorkers caps the default worker count derived from
// runtime.NumCPU(); beyond this the per-cycle barriers dominate any
// remaining shard-level parallelism for the model sizes Emerald runs.
const MaxDefaultWorkers = 8

// DefaultWorkers returns the default worker count for the -workers
// flag: runtime.NumCPU() capped at MaxDefaultWorkers.
func DefaultWorkers() int {
	n := runtime.NumCPU()
	if n > MaxDefaultWorkers {
		n = MaxDefaultWorkers
	}
	if n < 1 {
		n = 1
	}
	return n
}

// Pool is a persistent set of workers that execute Groups. The
// coordinator (the goroutine calling Group.Run) participates as one
// worker, so a Pool of size N starts N-1 goroutines. A Pool of size <= 1
// starts none and runs every Group inline.
//
// Pools are cheap to keep around for a whole simulation: between phases
// workers spin briefly then park on a condition variable, so an idle
// pool costs nothing after ~a few microseconds.
type Pool struct {
	size int

	epoch atomic.Uint64          // bumped once per Group.Run
	cur   atomic.Pointer[runCtx] // the group being executed

	mu     sync.Mutex
	cond   *sync.Cond
	parked int
	quit   bool

	wg sync.WaitGroup
}

// runCtx is the per-Run dispatch state shared with workers.
//
// Groups are rerun every cycle, so a worker may still be inside run()
// for the previous Run of a group when the coordinator starts the next
// one. next therefore carries the Run's generation in its high 32 bits
// and the next task index in its low 32 bits: a worker claims a task
// only by a compare-and-swap against the generation it started with,
// so a stale worker can never claim (or count toward) a newer Run, and
// done is reset before the new generation is published.
type runCtx struct {
	tasks []func()
	gen   uint32 // coordinator-owned: generation of the latest Run
	next  atomic.Uint64
	done  atomic.Int64
}

const taskMask = 1<<32 - 1

// NewPool creates a pool of the given size. Size <= 1 yields an inline
// pool with no goroutines (still usable; Run degenerates to a loop).
func NewPool(size int) *Pool {
	if size < 1 {
		size = 1
	}
	p := &Pool{size: size}
	p.cond = sync.NewCond(&p.mu)
	for i := 1; i < size; i++ {
		p.wg.Add(1)
		go p.worker()
	}
	return p
}

// Size returns the worker count (including the coordinator).
func (p *Pool) Size() int {
	if p == nil {
		return 1
	}
	return p.size
}

// Close stops the workers. The pool must not be used afterwards.
func (p *Pool) Close() {
	if p == nil || p.size <= 1 {
		return
	}
	p.mu.Lock()
	p.quit = true
	p.cond.Broadcast()
	p.mu.Unlock()
	p.wg.Wait()
}

// spinBudget is how many empty polls a worker performs before parking.
// At ~a few ns per poll this covers the serial exchange stages between
// the parallel phases of adjacent cycles without ever touching the
// condition variable.
const spinBudget = 1 << 16

func (p *Pool) worker() {
	defer p.wg.Done()
	seen := p.epoch.Load()
	spins := 0
	for {
		e := p.epoch.Load()
		if e != seen {
			seen = e
			spins = 0
			p.cur.Load().run()
			continue
		}
		spins++
		if spins%64 == 0 {
			runtime.Gosched()
		}
		if spins < spinBudget {
			continue
		}
		p.mu.Lock()
		for p.epoch.Load() == seen && !p.quit {
			p.parked++
			p.cond.Wait()
			p.parked--
		}
		quit := p.quit
		p.mu.Unlock()
		if quit {
			return
		}
		spins = 0
	}
}

// run claims tasks of the generation current at entry until none
// remain or a newer Run has started.
func (rc *runCtx) run() {
	n := uint64(len(rc.tasks))
	v := rc.next.Load()
	gen := v >> 32
	for v>>32 == gen && v&taskMask < n {
		if !rc.next.CompareAndSwap(v, v+1) {
			v = rc.next.Load()
			continue
		}
		rc.tasks[v&taskMask]()
		rc.done.Add(1)
		v = rc.next.Load()
	}
}

// Group is a fixed set of independent tasks executed together with
// barrier semantics. Build Groups once (they are allocation-free to
// Run) and call Run once per simulated phase.
type Group struct {
	pool *Pool
	rc   runCtx
}

// NewGroup builds a group over the given tasks. pool may be nil (inline
// execution). The tasks slice is retained; do not mutate it.
func NewGroup(pool *Pool, tasks []func()) *Group {
	return &Group{pool: pool, rc: runCtx{tasks: tasks}}
}

// Run executes every task and returns once all have completed. With a
// nil or single-worker pool the tasks run inline, in slice order, on
// the calling goroutine.
func (g *Group) Run() {
	p := g.pool
	if p == nil || p.size <= 1 || len(g.rc.tasks) <= 1 {
		for _, t := range g.rc.tasks {
			t()
		}
		return
	}
	g.rc.gen++
	g.rc.done.Store(0)
	g.rc.next.Store(uint64(g.rc.gen) << 32)
	p.cur.Store(&g.rc)
	p.epoch.Add(1)
	p.mu.Lock()
	if p.parked > 0 {
		p.cond.Broadcast()
	}
	p.mu.Unlock()

	g.rc.run() // coordinator works too

	n := int64(len(g.rc.tasks))
	spins := 0
	for g.rc.done.Load() < n {
		spins++
		if spins%64 == 0 {
			runtime.Gosched()
		}
	}
}
