package sim

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// This file implements the kernel's intra-cycle parallel execution mode:
// phases registered with AddShardedPhase run their shard body concurrently
// on a lockstep pool of worker goroutines, with a barrier between phases.
// The scheduler preserves the kernel's determinism contract because the
// *decomposition* is deterministic — each shard owns a fixed slice of the
// simulation and cross-shard effects are deferred into per-shard buffers
// applied at the barrier (by the phase's merge function) — so the state at
// every barrier is identical to a sequential execution of the same phases.
//
// The pool is spawned per Run/RunUntil call (workers for a 4000-cycle run
// amortize one spawn) and runs all workers through the same cycle script:
//
//	decide (worker 0: budget/stop condition)      -> barrier
//	for each phase:
//	    sharded: every worker runs shard(now, id)  -> barrier
//	             worker 0 runs merge(now)          -> barrier (if merge)
//	    serial:  worker 0 runs fn(now)             -> barrier
//	worker 0 advances now
//
// Barriers are sense-reversing spin barriers on atomics; the Go memory
// model's sequentially-consistent atomics make every write before a
// worker's arrival visible to every worker after the release, which is
// also what keeps the race detector quiet for the data handed across.

// ShardFunc is the per-shard body of a sharded phase: it is called once
// per shard per cycle, concurrently across shards, and must only touch
// state its shard owns (plus its shard's deferral buffers).
type ShardFunc func(now Cycle, shard int)

// barrier is a central sense-reversing barrier for n participants. Each
// waiter keeps a local generation counter; the last arriver of a
// generation resets the count and publishes the new generation.
//
// Waiters escalate: spin on the generation atomic (cheapest when every
// worker has its own core and the others are at most a phase away), then
// yield to the Go scheduler, then park on a condition variable. The last
// stage is what keeps oversubscribed runs sane — with fewer real CPUs
// than workers (GOMAXPROCS raised past an affinity mask or container
// quota) a spinning waiter only steals the timeslice the releaser needs,
// so waiters must genuinely sleep. On adequate hardware the spin stage
// hits and the lock is never contended.
type barrier struct {
	n     int32
	count atomic.Int32
	gen   atomic.Uint32

	// spinLimit bounds busy-waiting before yielding to the scheduler.
	// When the machine has fewer schedulable threads than workers the
	// other participants cannot be running, so spinning would only delay
	// them; skip straight to yielding in that case.
	spinLimit int

	mu   sync.Mutex
	cond sync.Cond
}

func newBarrier(n int) *barrier {
	b := &barrier{n: int32(n), spinLimit: 1}
	// GOMAXPROCS can exceed the CPUs the process may actually use (an
	// affinity mask, a container quota); NumCPU respects the mask, and
	// spinning beyond the real core count just starves the other workers.
	procs := runtime.GOMAXPROCS(0)
	if cpus := runtime.NumCPU(); cpus < procs {
		procs = cpus
	}
	if procs >= n {
		b.spinLimit = 256
	}
	b.cond.L = &b.mu
	return b
}

// yieldLimit is how many runtime.Gosched rounds a waiter tries after
// spinning before parking on the condition variable.
const yieldLimit = 64

// await blocks until all n participants have arrived. sense is the
// caller's local generation counter.
func (b *barrier) await(sense *uint32) {
	*sense++
	if b.count.Add(1) == b.n {
		b.count.Store(0)
		// Publish under the lock so a waiter that checked gen and is
		// about to park cannot miss the broadcast.
		b.mu.Lock()
		b.gen.Store(*sense)
		b.mu.Unlock()
		b.cond.Broadcast()
		return
	}
	for spins := 0; b.gen.Load() != *sense; spins++ {
		if spins < b.spinLimit {
			continue
		}
		if spins < b.spinLimit+yieldLimit {
			runtime.Gosched()
			continue
		}
		b.mu.Lock()
		for b.gen.Load() != *sense {
			b.cond.Wait()
		}
		b.mu.Unlock()
		return
	}
}

// SetShards sets the number of shards phases registered with
// AddShardedPhase execute across. n <= 1 selects the sequential path:
// Run and Step execute shard bodies inline (shard 0..n-1 in order), spawn
// no goroutines, and allocate nothing. n > 1 makes Run and RunUntil drive
// the cycle loop on a lockstep worker pool.
func (k *Kernel) SetShards(n int) {
	if n < 1 {
		n = 1
	}
	k.shards = n
}

// Shards reports the configured shard count (1 = sequential).
func (k *Kernel) Shards() int {
	if k.shards < 1 {
		return 1
	}
	return k.shards
}

// AddShardedPhase appends a phase whose body runs once per shard each
// cycle, concurrently when SetShards(n > 1) is in effect and inline (in
// shard order) otherwise. merge, which may be nil, runs after all shard
// bodies complete — single-threaded, behind a barrier — to apply deferred
// cross-shard effects. Sequential execution of the shard bodies in shard
// order must be equivalent to any concurrent execution; that is the
// registrant's determinism obligation.
func (k *Kernel) AddShardedPhase(name string, shard ShardFunc, merge PhaseFunc) {
	if shard == nil {
		panic("sim: nil sharded phase " + name)
	}
	k.phases = append(k.phases, phase{name: name, shard: shard, merge: merge})
}

// shardRun is the shared state of one parallel Run/RunUntil call.
type shardRun struct {
	k      *Kernel
	b      *barrier
	budget int64
	cond   func() bool

	// Written by worker 0 only, read by the others strictly after a
	// barrier, so plain fields suffice.
	iter int64
	stop bool
	done bool
}

// runParallel drives up to budget cycles on the worker pool, stopping
// early when cond (optional) reports true before a cycle. It reports the
// final cond evaluation (true when cond is nil), matching RunUntil.
func (k *Kernel) runParallel(budget int64, cond func() bool) bool {
	c := &shardRun{k: k, b: newBarrier(k.shards), budget: budget, cond: cond}
	for w := 1; w < k.shards; w++ {
		go c.worker(w)
	}
	c.worker(0)
	return c.done
}

// worker is the per-participant cycle loop; the caller's goroutine acts
// as worker 0 and performs all single-threaded work.
func (c *shardRun) worker(id int) {
	var sense uint32
	for {
		if id == 0 {
			c.decide()
		}
		c.b.await(&sense)
		if c.stop {
			return
		}
		now := c.k.now
		for i := range c.k.phases {
			p := &c.k.phases[i]
			if p.shard != nil {
				p.shard(now, id)
				c.b.await(&sense)
				if p.merge != nil {
					if id == 0 {
						p.merge(now)
					}
					c.b.await(&sense)
				}
			} else {
				if id == 0 {
					p.fn(now)
				}
				c.b.await(&sense)
			}
		}
		if id == 0 {
			c.k.now = now + 1
			c.iter++
		}
	}
}

// decide is worker 0's cycle-boundary bookkeeping: evaluate the stop
// condition (exactly once per boundary, same as the sequential path) and
// check the cycle budget.
func (c *shardRun) decide() {
	if c.cond != nil && c.cond() {
		c.stop, c.done = true, true
		return
	}
	if c.iter >= c.budget {
		c.stop = true
		c.done = c.cond == nil
	}
}
