package sched

import (
	"errors"
	"fmt"
	"time"

	"sacga/internal/objective"
	"sacga/internal/search"
)

// ReplicaError is the typed error the fault-tolerant schedulers
// (ParallelIslands, Portfolio) return when replicas were dropped during the
// run. Unless AllDead is set the ensemble still finished: the error rides
// alongside a valid, finalized Result — the multi-engine analogue of a
// quarantining generation.
type ReplicaError struct {
	// Scheduler is the registry name of the scheduler that dropped them.
	Scheduler string
	// Dropped holds the dropped replica indices, ascending.
	Dropped []int
	// Errs holds each dropped replica's final error, parallel to Dropped.
	Errs []error
	// AllDead reports that no replica survived; the Result carries the
	// pooled last-good populations.
	AllDead bool
}

func (e *ReplicaError) Error() string {
	outcome := "continued without them"
	if e.AllDead {
		outcome = "no replicas left"
	}
	return fmt.Sprintf("sched: %s: dropped replicas %v (%s): %v",
		e.Scheduler, e.Dropped, outcome, e.Errs[0])
}

// Unwrap exposes the first dropped replica's cause to errors.Is/As.
func (e *ReplicaError) Unwrap() error { return e.Errs[0] }

// replicaFailure is one replica's outcome for an epoch, written by index
// from the stepping goroutines and consumed at the barrier.
type replicaFailure struct {
	err      error
	poisoned bool
}

// ReplicaSet tracks which child engines a scheduler still trusts. A dead
// replica is no longer stepped but its last-good population remains in the
// pooled view; a poisoned replica (watchdog abandonment — a runaway step
// may still be writing its buffers) is excluded from everything. Exported
// so the cross-process shard coordinator degrades with exactly the same
// bookkeeping as the in-process schedulers (process isolation means its
// replicas are only ever dead, never poisoned — a runaway worker cannot
// touch the coordinator-held state).
type ReplicaSet struct {
	dead     []bool
	poisoned []bool
	dropped  []int
	errs     []error
	reported bool
}

// Reset initializes the set with n live replicas.
func (r *ReplicaSet) Reset(n int) {
	r.dead = make([]bool, n)
	r.poisoned = make([]bool, n)
	r.dropped = nil
	r.errs = nil
	r.reported = false
}

// Drop retires replica i. Call at the epoch barrier in replica-index
// order, so Dropped is deterministic at any worker count.
func (r *ReplicaSet) Drop(i int, err error, poisoned bool) {
	if r.dead[i] {
		return
	}
	r.dead[i] = true
	r.poisoned[i] = poisoned
	r.dropped = append(r.dropped, i)
	r.errs = append(r.errs, err)
}

// Dead reports whether replica i has been dropped.
func (r *ReplicaSet) Dead(i int) bool { return r.dead[i] }

// Poisoned reports whether replica i was dropped with poisoned state.
func (r *ReplicaSet) Poisoned(i int) bool { return r.poisoned[i] }

// DeadFlags returns a copy of the per-replica dead flags (snapshot form).
func (r *ReplicaSet) DeadFlags() []bool { return append([]bool(nil), r.dead...) }

// PoisonedFlags returns a copy of the per-replica poisoned flags.
func (r *ReplicaSet) PoisonedFlags() []bool { return append([]bool(nil), r.poisoned...) }

// AllDead reports whether no replica survives.
func (r *ReplicaSet) AllDead() bool {
	for _, d := range r.dead {
		if !d {
			return false
		}
	}
	return len(r.dead) > 0
}

// TakeErr builds the run's ReplicaError, once: later calls return nil so a
// finalized scheduler does not re-report on subsequent (no-op) Steps.
func (r *ReplicaSet) TakeErr(scheduler string) error {
	if r.reported || len(r.dropped) == 0 {
		return nil
	}
	r.reported = true
	return &ReplicaError{
		Scheduler: scheduler,
		Dropped:   append([]int(nil), r.dropped...),
		Errs:      append([]error(nil), r.errs...),
		AllDead:   r.AllDead(),
	}
}

// RestoreState rebuilds the liveness state from a checkpoint. nil dead (a
// pre-fault-tolerance snapshot) means all replicas alive. Dropped causes are
// not persisted; a placeholder keeps the final report well-formed.
func (r *ReplicaSet) RestoreState(n int, dead, poisoned []bool) {
	r.Reset(n)
	if dead == nil {
		return
	}
	copy(r.dead, dead)
	copy(r.poisoned, poisoned)
	for i, d := range r.dead {
		if d {
			r.dropped = append(r.dropped, i)
			r.errs = append(r.errs, errors.New("dropped before checkpoint"))
		}
	}
}

// poisonedAlgo marks a poisoned replica's placeholder entry in a composite
// snapshot. gob rejects nil pointers inside slices, so the unusable state is
// stood in for by an empty checkpoint; Restore never reads the entry (the
// replica stays dropped).
const poisonedAlgo = "sched/poisoned"

func poisonedPlaceholder() *search.Checkpoint { return &search.Checkpoint{Algo: poisonedAlgo} }

// StepWithRetry advances one engine under the scheduler's shared fault
// policy: a failing Step is retried up to `retries` more times (none when
// retries <= 0), sleeping backoff (doubling per attempt) between tries.
// Each attempt runs through search.GuardedStep: under the watchdog when
// timeout > 0, and under a panic recover either way. poisoned reports
// watchdog abandonment — the engine's buffers may still be written by the
// runaway step, so the caller must never touch the engine again. Retrying
// a quarantining engine is meaningful because engines complete their
// generation before reporting the fault: each attempt is a fresh
// generation that may evaluate cleanly.
//
// Exported because this per-step isolation contract is shared budget-wide:
// the in-process schedulers apply it to their replicas, and the job server
// (internal/serve) applies it to every tenant's turn — one misbehaving job
// degrades itself, never the ensemble or the serving process.
func StepWithRetry(eng search.Engine, prob objective.Problem, retries int, backoff, timeout time.Duration) (err error, poisoned bool) {
	for attempt := 0; ; attempt++ {
		err = search.GuardedStep(eng, prob, timeout)
		if err == nil {
			return nil, false
		}
		// A direct type assertion, not errors.As: only an abandonment of
		// THIS child's step poisons it. A nested fault-tolerant scheduler
		// may return an error wrapping an abandoned *search.WatchdogError
		// from a replica it already dropped — the child itself is valid.
		if we, ok := err.(*search.WatchdogError); ok && we.Abandoned {
			return err, true
		}
		if attempt >= retries {
			return err, false
		}
		if backoff > 0 {
			time.Sleep(backoff << attempt)
		}
	}
}

// epochBarrier is the replica-step policy ParallelIslands and Portfolio
// share: every live child advances its epoch's generations concurrently,
// each generation under StepWithRetry, and a child whose retries run out
// stops for the epoch and is dropped at the barrier.
type epochBarrier struct {
	fails []replicaFailure // per-epoch scratch, index-addressed
}

// reset sizes the barrier for n children.
func (b *epochBarrier) reset(n int) { b.fails = make([]replicaFailure, n) }

// step runs one epoch: child i takes up to gens(i) generations, stopping
// early when it is done, with at most workers children stepping at once.
// Failures are dropped into reps in child-index order, so the outcome is
// the same at any worker count. It reports whether no child survives.
func (b *epochBarrier) step(engines []search.Engine, probs []objective.Problem, reps *ReplicaSet,
	workers, retries int, backoff, timeout time.Duration, gens func(i int) int) (allDead bool) {
	clear(b.fails)
	runIndexed(len(engines), workers, func(i int) error {
		if reps.dead[i] {
			return nil
		}
		eng := engines[i]
		for g := 0; g < gens(i) && !eng.Done(); g++ {
			if err, poisoned := StepWithRetry(eng, probs[i], retries, backoff, timeout); err != nil {
				b.fails[i] = replicaFailure{err: err, poisoned: poisoned}
				return nil
			}
		}
		return nil
	})
	for i, f := range b.fails {
		if f.err != nil {
			reps.Drop(i, f.err, f.poisoned)
		}
	}
	return reps.AllDead()
}
