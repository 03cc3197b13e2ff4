package ga

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"

	"sacga/internal/objective"
)

// Population evaluation. TryEvaluate and TryEvaluateWith are the only
// evaluation entry points, and every engine routes through them. Problems
// implementing objective.BatchProblem take the batch fast path: gene-vector
// views and result slots come from a recycled scratch arena, and the
// parallel path hands each pool worker a contiguous sub-batch. Every
// evaluation is fault-isolated: a panicking or non-finite evaluation
// quarantines that individual with worst-case objectives (+Inf everywhere,
// infinite violation) and the call returns a typed *objective.EvalError,
// while every sibling gets exactly the result a clean evaluation produces.
// Results are written to index-addressed slots and faults are keyed to
// individuals, never to scheduling, so the batch, scalar, parallel and
// sequential paths are bit-identical at any worker count, faulting or not.
// The no-fault path allocates nothing at steady state: the evaluation
// scratch and the fault collector are both recycled.

// minParallelEval is the population size below which parallel dispatch is
// not worth its bookkeeping and evaluation stays sequential.
const minParallelEval = 8

// TryEvaluate evaluates every individual sequentially, caching objectives
// and total violation. It returns nil exactly when every individual
// evaluated cleanly, and a *objective.EvalError describing the quarantined
// individuals otherwise.
func (p Population) TryEvaluate(prob objective.Problem) error {
	fs := getFaultSet()
	if bp, ok := prob.(objective.BatchProblem); ok {
		p.tryEvaluateBatch(bp, 0, fs)
	} else {
		for i, ind := range p {
			ind.tryEval(prob, i, fs)
		}
	}
	return finishFaults(fs)
}

// TryEvaluateWith is TryEvaluate across a worker pool; a nil pool selects
// the shared one. Engines that own a private Pool route every generation's
// evaluation through it, so one set of persistent workers serves the whole
// run. workers <= 0 selects NumCPU, and populations smaller than
// minParallelEval stay sequential. Batch problems are split into a few
// contiguous sub-batches per worker, so uneven per-individual costs still
// balance.
func (p Population) TryEvaluateWith(prob objective.Problem, pool *Pool, workers int) error {
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if workers > len(p) {
		workers = len(p)
	}
	if workers <= 1 || len(p) < minParallelEval {
		return p.TryEvaluate(prob)
	}
	if pool == nil {
		pool = SharedPool()
	}
	fs := getFaultSet()
	if bp, ok := prob.(objective.BatchProblem); ok {
		nb := workers * 4 // sub-batches per job: steals' worth of slack
		if nb > len(p) {
			nb = len(p)
		}
		pool.RunLimit(nb, workers, func(b int) {
			lo, hi := b*len(p)/nb, (b+1)*len(p)/nb
			p[lo:hi].tryEvaluateBatch(bp, lo, fs)
		})
		return finishFaults(fs)
	}
	pool.RunLimit(len(p), workers, func(i int) { p[i].tryEval(prob, i, fs) })
	return finishFaults(fs)
}

// tryEval evaluates one individual through the recovered scalar path;
// index is its position in the enclosing population for fault reporting.
func (ind *Individual) tryEval(prob objective.Problem, index int, fs *faultSet) {
	if err := ind.evalRecover(prob); err != nil {
		ind.quarantine(prob.NumObjectives())
		fs.add(index, err)
		return
	}
	if !validResult(ind.Objectives, ind.Violation) {
		ind.quarantine(prob.NumObjectives())
		fs.add(index, objective.ErrNonFinite)
	}
}

// evalRecover is Individual.Eval with the panic converted to an error.
func (ind *Individual) evalRecover(prob objective.Problem) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = panicAsError(r)
		}
	}()
	ind.Eval(prob)
	return nil
}

// tryEvaluateBatch runs p through a BatchProblem in one call, copying each
// result into the individual's own reused buffers. base is p's offset
// within the enclosing population, so fault indices stay population-global
// no matter how the batch was sub-divided.
func (p Population) tryEvaluateBatch(bp objective.BatchProblem, base int, fs *faultSet) {
	n := len(p)
	if n == 0 {
		return
	}
	sc := getEvalScratch(n)
	defer putEvalScratch(sc)
	nobj, ncons := bp.NumObjectives(), bp.NumConstraints()
	for i, ind := range p {
		sc.xs[i] = ind.X
		sc.res[i].Prepare(nobj, ncons)
	}
	if err := batchRecover(bp, sc.xs[:n], sc.res[:n]); err != nil {
		// The batch call aborted, so no row of res can be trusted.
		// Re-evaluate every row through the recovered scalar path: only the
		// rows that actually fail are quarantined, the siblings get exactly
		// the results the batch would have produced (the batch and scalar
		// paths are bit-identical by contract).
		for i := range sc.xs[:n] {
			sc.xs[i] = nil
		}
		for i, ind := range p {
			ind.tryEval(bp, base+i, fs)
		}
		return
	}
	for i, ind := range p {
		if objs, vio := sc.res[i].Objectives, sc.res[i].TotalViolation(); validResult(objs, vio) {
			ind.Objectives = append(ind.Objectives[:0], objs...)
			ind.Violation = vio
		} else {
			ind.quarantine(nobj)
			fs.add(base+i, objective.ErrNonFinite)
		}
		sc.xs[i] = nil // do not retain gene vectors in the scratch pool
	}
}

// batchRecover is EvaluateBatch with the panic converted to an error.
func batchRecover(bp objective.BatchProblem, xs [][]float64, res []objective.Result) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = panicAsError(r)
		}
	}()
	bp.EvaluateBatch(xs, res)
	return nil
}

// quarantine stamps the worst-case result: +Inf on every objective and an
// infinite violation, so the individual loses every constrained-domination
// comparison and is selected away without perturbing its siblings.
func (ind *Individual) quarantine(nobj int) {
	ind.Objectives = ind.Objectives[:0]
	for k := 0; k < nobj; k++ {
		ind.Objectives = append(ind.Objectives, math.Inf(1))
	}
	ind.Violation = math.Inf(1)
}

// validResult reports whether a result can be ordered by the selection
// kernels: no NaN anywhere, no -Inf objective (which would dominate every
// honest point). +Inf objectives are legitimately terrible and pass.
func validResult(objs []float64, vio float64) bool {
	if math.IsNaN(vio) {
		return false
	}
	for _, v := range objs {
		if math.IsNaN(v) || math.IsInf(v, -1) {
			return false
		}
	}
	return true
}

// panicAsError normalizes a recovered panic value.
func panicAsError(r any) error {
	switch v := r.(type) {
	case *PanicError:
		return v
	case error:
		return fmt.Errorf("objective panicked: %w", v)
	default:
		return fmt.Errorf("objective panicked: %v", v)
	}
}

// faultRec is one quarantined individual.
type faultRec struct {
	index int
	err   error
}

// faultSet collects quarantine records across pool workers.
type faultSet struct {
	mu     sync.Mutex
	faults []faultRec
}

func (fs *faultSet) add(index int, err error) {
	fs.mu.Lock()
	fs.faults = append(fs.faults, faultRec{index: index, err: err})
	fs.mu.Unlock()
}

// error folds the set into a deterministic *objective.EvalError (or nil):
// records are sorted by index so the reported first failure is the
// lowest-index one regardless of which worker recorded it first.
func (fs *faultSet) error() error {
	if len(fs.faults) == 0 {
		return nil
	}
	sort.Slice(fs.faults, func(a, b int) bool { return fs.faults[a].index < fs.faults[b].index })
	return &objective.EvalError{
		Index: fs.faults[0].index,
		Count: len(fs.faults),
		Err:   fs.faults[0].err,
	}
}

// faultSetPool recycles collectors so the no-fault fast path stays
// allocation-free at steady state (same shape as the eval scratch pool).
var faultSetPool struct {
	mu   sync.Mutex
	free []*faultSet
}

func getFaultSet() *faultSet {
	faultSetPool.mu.Lock()
	var fs *faultSet
	if k := len(faultSetPool.free); k > 0 {
		fs = faultSetPool.free[k-1]
		faultSetPool.free = faultSetPool.free[:k-1]
	}
	faultSetPool.mu.Unlock()
	if fs == nil {
		fs = &faultSet{}
	}
	return fs
}

func finishFaults(fs *faultSet) error {
	err := fs.error()
	for i := range fs.faults {
		fs.faults[i] = faultRec{} // do not retain error values
	}
	fs.faults = fs.faults[:0]
	faultSetPool.mu.Lock()
	faultSetPool.free = append(faultSetPool.free, fs)
	faultSetPool.mu.Unlock()
	return err
}
