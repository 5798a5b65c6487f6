// Package sim provides the deterministic cycle-accurate simulation kernel
// underneath the on-chip network model.
//
// The kernel is intentionally simple: a simulation is a fixed, ordered list
// of named phases. Each global cycle runs every phase once, in registration
// order; within a phase, components are visited in registration order. All
// randomness is drawn from seeded Streams, one per consumer, so a simulation
// with the same configuration and seed is bit-for-bit repeatable. That
// determinism is what makes the property tests and paper-reproduction
// benchmarks in this repository meaningful.
package sim

import "fmt"

// Cycle is a point in simulated time, measured in router clock cycles.
type Cycle = int64

// PhaseFunc is the body of one simulation phase. It receives the current
// cycle number.
type PhaseFunc func(now Cycle)

type phase struct {
	name string
	fn   PhaseFunc

	// shard and merge describe a sharded phase (AddShardedPhase, see
	// shard.go): shard runs once per shard per cycle, merge (optional)
	// applies deferred cross-shard effects behind the phase barrier.
	shard ShardFunc
	merge PhaseFunc
}

// Kernel drives a phased, cycle-accurate simulation.
type Kernel struct {
	now    Cycle
	phases []phase
	seed   int64

	// shards is the intra-cycle parallelism for sharded phases; <= 1 is
	// the sequential path (see shard.go).
	shards int

	// crashHook, when set, observes a panic unwinding Run/RunUntil before
	// it propagates (SetCrashHook).
	crashHook func(now Cycle, recovered any)
}

// NewKernel returns a kernel for a run seeded with seed.
func NewKernel(seed int64) *Kernel { return &Kernel{seed: seed} }

// Seed reports the run's seed, which keys every consumer's Stream.
func (k *Kernel) Seed() int64 { return k.seed }

// Now reports the current cycle. During a phase it is the cycle being
// executed; between Step calls it is the number of completed cycles.
func (k *Kernel) Now() Cycle { return k.now }

// RestoreClock repositions the kernel at cycle now, the restore
// counterpart of Now. It must only be called between cycles.
func (k *Kernel) RestoreClock(now Cycle) { k.now = now }

// AddPhase appends a named phase to the per-cycle schedule. Phases run in
// the order they were added. Adding a phase after the simulation has started
// is allowed and takes effect on the next cycle.
func (k *Kernel) AddPhase(name string, fn PhaseFunc) {
	if fn == nil {
		panic(fmt.Sprintf("sim: nil phase %q", name))
	}
	k.phases = append(k.phases, phase{name: name, fn: fn})
}

// Step executes one full cycle: every phase once, in order. Sharded
// phases run their shard bodies inline in shard order — which, by the
// determinism contract of AddShardedPhase, produces the same state as a
// parallel cycle — so Step never spawns goroutines.
func (k *Kernel) Step() {
	for i := range k.phases {
		p := &k.phases[i]
		if p.shard != nil {
			for s := 0; s < k.Shards(); s++ {
				p.shard(k.now, s)
			}
			if p.merge != nil {
				p.merge(k.now)
			}
			continue
		}
		p.fn(k.now)
	}
	k.now++
}

// SetCrashHook installs fn to observe a panic unwinding Run or RunUntil
// before it propagates: the flight recorder uses it to freeze its window
// on the way down. The hook runs on the panicking goroutine with the
// simulation mid-cycle — it must treat the state as read-only wreckage.
// The original panic is always re-raised, and a panic inside the hook
// itself is swallowed so it cannot mask the cause. A panic on a pool
// worker goroutine (shards > 1) crashes the process before the runner
// returns and is not observable here.
func (k *Kernel) SetCrashHook(fn func(now Cycle, recovered any)) { k.crashHook = fn }

// crashGuard is the deferred recover behind Run/RunUntil when a crash
// hook is installed.
func (k *Kernel) crashGuard() {
	if r := recover(); r != nil {
		if h := k.crashHook; h != nil {
			func() {
				defer func() { recover() }()
				h(k.now, r)
			}()
		}
		panic(r)
	}
}

// Run executes n cycles, on the lockstep worker pool when SetShards
// configured intra-cycle parallelism.
func (k *Kernel) Run(n int64) {
	if k.crashHook != nil {
		defer k.crashGuard()
	}
	if k.shards > 1 && n > 0 {
		k.runParallel(n, nil)
		return
	}
	for i := int64(0); i < n; i++ {
		k.Step()
	}
}

// RunUntil steps the simulation until cond returns true or the cycle budget
// is exhausted. It reports whether cond became true. cond always runs
// single-threaded, between cycles.
func (k *Kernel) RunUntil(cond func() bool, budget int64) bool {
	if k.crashHook != nil {
		defer k.crashGuard()
	}
	if k.shards > 1 && budget > 0 {
		return k.runParallel(budget, cond)
	}
	for i := int64(0); i < budget; i++ {
		if cond() {
			return true
		}
		k.Step()
	}
	return cond()
}

// PhaseNames reports the registered phase names in execution order,
// primarily for tests that pin the kernel's schedule.
func (k *Kernel) PhaseNames() []string {
	names := make([]string, len(k.phases))
	for i, p := range k.phases {
		names[i] = p.name
	}
	return names
}
