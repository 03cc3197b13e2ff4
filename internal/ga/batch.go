package ga

import (
	"sync"

	"sacga/internal/objective"
)

// evalScratch is one batch evaluation's workspace: the gene-vector view
// slice handed to EvaluateBatch and the recycled result slots it fills.
type evalScratch struct {
	xs  [][]float64
	res []objective.Result
}

func (sc *evalScratch) ensure(n int) {
	if cap(sc.xs) < n {
		sc.xs = make([][]float64, n)
		res := make([]objective.Result, n)
		copy(res, sc.res) // keep warmed result buffers
		sc.res = res
	}
	sc.xs = sc.xs[:n]
	sc.res = sc.res[:n]
}

// evalPool recycles evaluation scratch across calls and pool workers. A
// mutex-guarded free list (not a sync.Pool) so warmed buffers survive
// garbage collections and the steady state stays allocation-free.
var evalPool struct {
	mu   sync.Mutex
	free []*evalScratch
}

func getEvalScratch(n int) *evalScratch {
	evalPool.mu.Lock()
	var sc *evalScratch
	if k := len(evalPool.free); k > 0 {
		sc = evalPool.free[k-1]
		evalPool.free = evalPool.free[:k-1]
	}
	evalPool.mu.Unlock()
	if sc == nil {
		sc = &evalScratch{}
	}
	sc.ensure(n)
	return sc
}

func putEvalScratch(sc *evalScratch) {
	evalPool.mu.Lock()
	evalPool.free = append(evalPool.free, sc)
	evalPool.mu.Unlock()
}
