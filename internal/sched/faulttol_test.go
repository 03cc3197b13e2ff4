package sched_test

import (
	"errors"
	"testing"

	"sacga/internal/sched"
	"sacga/internal/search"
)

var errStep = errors.New("sched test: step failed")

// failingEngine fails, or panics, on every Step and counts the attempts.
// Only Step is ever called on it.
type failingEngine struct {
	search.Engine
	panics bool
	steps  int
}

func (e *failingEngine) Step() error {
	e.steps++
	if e.panics {
		panic("sched test: step panicked")
	}
	return errStep
}

// TestStepWithRetryAttempts: a failing Step gets 1+retries attempts, and a
// negative retry count means no retries.
func TestStepWithRetryAttempts(t *testing.T) {
	for _, c := range []struct{ retries, attempts int }{{-1, 1}, {0, 1}, {2, 3}} {
		eng := &failingEngine{}
		err, poisoned := sched.StepWithRetry(eng, nil, c.retries, 0, 0)
		if !errors.Is(err, errStep) || poisoned {
			t.Fatalf("retries=%d: err %v, poisoned %v; want the step error, not poisoned", c.retries, err, poisoned)
		}
		if eng.steps != c.attempts {
			t.Fatalf("retries=%d: %d attempts, want %d", c.retries, eng.steps, c.attempts)
		}
	}
}

// TestStepWithRetryRecoversPanic: without a watchdog a panicking Step
// still comes back as an error, so a scheduler can drop the replica.
func TestStepWithRetryRecoversPanic(t *testing.T) {
	eng := &failingEngine{panics: true}
	err, poisoned := sched.StepWithRetry(eng, nil, 1, 0, 0)
	if err == nil || poisoned {
		t.Fatalf("err %v, poisoned %v; want a recovered panic, not poisoned", err, poisoned)
	}
	if eng.steps != 2 {
		t.Fatalf("%d attempts, want 2", eng.steps)
	}
}
