package ga

import (
	"runtime"
	"sync/atomic"
	"testing"

	"sacga/internal/benchfn"
	"sacga/internal/objective"
	"sacga/internal/rng"
)

func TestPoolRunCoversEveryIndexExactlyOnce(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	for _, n := range []int{1, 2, 7, 64, 1000} {
		hits := make([]atomic.Int32, n)
		p.Run(n, func(i int) { hits[i].Add(1) })
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("n=%d: index %d executed %d times, want 1", n, i, got)
			}
		}
	}
}

func TestPoolRunZeroAndNegative(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	ran := false
	p.Run(0, func(int) { ran = true })
	p.Run(-3, func(int) { ran = true })
	if ran {
		t.Fatal("fn must not run for n <= 0")
	}
}

func TestPoolRunLimitRespectsCap(t *testing.T) {
	p := NewPool(8)
	defer p.Close()
	var active, peak atomic.Int32
	p.RunLimit(64, 2, func(i int) {
		a := active.Add(1)
		for {
			old := peak.Load()
			if a <= old || peak.CompareAndSwap(old, a) {
				break
			}
		}
		runtime.Gosched()
		active.Add(-1)
	})
	if got := peak.Load(); got > 2 {
		t.Fatalf("RunLimit(.., 2, ..) reached concurrency %d", got)
	}
}

func TestPoolReuseAcrossManyJobs(t *testing.T) {
	p := NewPool(3)
	defer p.Close()
	var total atomic.Int64
	for job := 0; job < 200; job++ {
		p.Run(17, func(i int) { total.Add(1) })
	}
	if total.Load() != 200*17 {
		t.Fatalf("pool lost work across reuse: %d", total.Load())
	}
}

func TestPoolNestedSubmissionCompletes(t *testing.T) {
	// A 1-worker pool with jobs submitting sub-jobs would deadlock if the
	// submitting goroutine did not participate in its own job.
	p := NewPool(1)
	defer p.Close()
	var inner atomic.Int64
	p.Run(4, func(i int) {
		p.Run(8, func(j int) { inner.Add(1) })
	})
	if inner.Load() != 32 {
		t.Fatalf("nested jobs incomplete: %d/32", inner.Load())
	}
}

func TestPoolRunAfterCloseStillCompletes(t *testing.T) {
	p := NewPool(2)
	p.Close()
	p.Close() // idempotent
	var n atomic.Int64
	p.Run(50, func(i int) { n.Add(1) })
	if n.Load() != 50 {
		t.Fatalf("post-Close job incomplete: %d/50", n.Load())
	}
}

func TestSharedPoolSingleton(t *testing.T) {
	if SharedPool() != SharedPool() {
		t.Fatal("SharedPool must return one process-wide instance")
	}
	if SharedPool().Workers() <= 0 {
		t.Fatal("shared pool has no workers")
	}
}

func TestEvaluateParallelWorkersExceedPopulation(t *testing.T) {
	// workers > len(p) must clamp, not spin up idle goroutines or panic.
	prob := benchfn.ZDT1(5)
	s := rng.New(41)
	lo, hi := prob.Bounds()
	pop := NewRandomPopulation(s, 10, lo, hi)
	ref := pop.Clone()
	noFault(t, ref.TryEvaluate(prob))
	noFault(t, pop.TryEvaluateWith(prob, nil, 1000))
	for i := range pop {
		for k := range pop[i].Objectives {
			if pop[i].Objectives[k] != ref[i].Objectives[k] {
				t.Fatal("clamped parallel evaluation diverged from sequential")
			}
		}
	}
}

func TestEvaluateParallelSmallPopulationStaysSequential(t *testing.T) {
	// len(p) < 8 must take the sequential path: with workers=4 a parallel
	// dispatch would still evaluate, but the contract is no dispatch at all,
	// observable through a non-atomic counter being race-free under -race
	// and exact without atomics.
	seen := 0
	prob := countingProblem{Problem: benchfn.ZDT1(4), hits: &seen}
	s := rng.New(43)
	lo, hi := prob.Bounds()
	pop := NewRandomPopulation(s, minParallelEval-1, lo, hi)
	noFault(t, pop.TryEvaluateWith(prob, nil, 4))
	if seen != len(pop) {
		t.Fatalf("sequential fallback evaluated %d of %d", seen, len(pop))
	}
}

func TestEvaluateParallelDefaultWorkerCount(t *testing.T) {
	// workers <= 0 selects NumCPU; results must match sequential either way.
	prob := benchfn.ZDT1(6)
	s := rng.New(47)
	lo, hi := prob.Bounds()
	pop := NewRandomPopulation(s, 32, lo, hi)
	ref := pop.Clone()
	noFault(t, ref.TryEvaluate(prob))
	noFault(t, pop.TryEvaluateWith(prob, nil, 0))
	for i := range pop {
		if pop[i].Objectives[0] != ref[i].Objectives[0] {
			t.Fatal("default-worker evaluation diverged")
		}
	}
}

func TestEvaluateWithExplicitPool(t *testing.T) {
	p := NewPool(3)
	defer p.Close()
	cnt := objective.NewCounter(benchfn.ZDT1(6))
	s := rng.New(53)
	lo, hi := cnt.Bounds()
	pop := NewRandomPopulation(s, 64, lo, hi)
	noFault(t, pop.TryEvaluateWith(cnt, p, 3))
	if cnt.Count() != 64 {
		t.Fatalf("explicit-pool evaluation lost individuals: %d", cnt.Count())
	}
}

// countingProblem counts Evaluate calls WITHOUT atomics: exact counts (and
// a clean -race run) prove the caller used the sequential path.
type countingProblem struct {
	objective.Problem
	hits *int
}

func (c countingProblem) Evaluate(x []float64) objective.Result {
	*c.hits++
	return c.Problem.Evaluate(x)
}
