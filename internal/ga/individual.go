// Package ga provides the real-coded genetic-algorithm substrate shared by
// all optimizers in this repository: individuals and populations, simulated
// binary crossover, polynomial and gaussian mutation, tournament and
// rank-based selection, and evaluation plumbing against an
// objective.Problem.
package ga

import (
	"sacga/internal/objective"
	"sacga/internal/pareto"
	"sacga/internal/rng"
)

// Individual is one real-coded candidate solution together with its cached
// evaluation and the bookkeeping fields the selection schemes use.
type Individual struct {
	// X is the decision vector.
	X []float64
	// Objectives is the minimized objective vector (set by TryEvaluate).
	Objectives []float64
	// Violation is the total normalized constraint violation, 0 = feasible.
	Violation float64
	// Rank is the non-domination rank assigned by the current selection
	// scheme. For SACGA it is the "effective" (possibly revised) rank.
	Rank int
	// Crowding is the crowding distance within the individual's front.
	Crowding float64
	// Partition is the objective-space partition index (SACGA/MESACGA);
	// -1 when partitioning is not in effect.
	Partition int
	// Age counts generations survived; used only for diagnostics.
	Age int
}

// Clone deep-copies the individual.
func (ind *Individual) Clone() *Individual {
	c := *ind
	c.X = append([]float64(nil), ind.X...)
	c.Objectives = append([]float64(nil), ind.Objectives...)
	return &c
}

// Point converts the individual to a pareto.Point view.
func (ind *Individual) Point() pareto.Point {
	return pareto.Point{Obj: ind.Objectives, Vio: ind.Violation}
}

// Feasible reports whether the individual satisfies all constraints.
func (ind *Individual) Feasible() bool { return ind.Violation <= 0 }

// Population is an ordered collection of individuals.
type Population []*Individual

// Points converts the population to pareto.Points (views, not copies).
func (p Population) Points() []pareto.Point {
	pts := make([]pareto.Point, len(p))
	for i, ind := range p {
		pts[i] = ind.Point()
	}
	return pts
}

// Clone deep-copies the population.
func (p Population) Clone() Population {
	out := make(Population, len(p))
	for i, ind := range p {
		out[i] = ind.Clone()
	}
	return out
}

// Eval evaluates a single individual against prob. Problems implementing
// objective.IntoProblem are routed through a pooled result scratch — the
// individual's cached objectives are copied out of the recycled buffers, so
// the scalar path allocates nothing at steady state.
func (ind *Individual) Eval(prob objective.Problem) {
	if ip, ok := prob.(objective.IntoProblem); ok {
		sc := getEvalScratch(1)
		res := &sc.res[0]
		ip.EvaluateInto(ind.X, res)
		ind.Objectives = append(ind.Objectives[:0], res.Objectives...)
		ind.Violation = res.TotalViolation()
		putEvalScratch(sc)
		return
	}
	res := prob.Evaluate(ind.X)
	ind.Objectives = res.Objectives
	ind.Violation = res.TotalViolation()
}

// NewRandom returns an individual sampled uniformly inside the bounds.
func NewRandom(s *rng.Stream, lo, hi []float64) *Individual {
	x := make([]float64, len(lo))
	for i := range x {
		x[i] = s.Uniform(lo[i], hi[i])
	}
	return &Individual{X: x, Partition: -1}
}

// NewRandomPopulation returns n uniformly sampled individuals.
func NewRandomPopulation(s *rng.Stream, n int, lo, hi []float64) Population {
	pop := make(Population, n)
	for i := range pop {
		pop[i] = NewRandom(s, lo, hi)
	}
	return pop
}

// AssignRanksAndCrowding runs a constrained non-dominated sort over the
// population and stores rank and crowding distance on every individual.
func (p Population) AssignRanksAndCrowding() {
	pts := p.Points()
	fronts := pareto.SortFronts(pts)
	for r, front := range fronts {
		crowd := pareto.Crowding(pts, front)
		for k, i := range front {
			p[i].Rank = r
			p[i].Crowding = crowd[k]
		}
	}
}

// FirstFront returns the individuals on the constrained non-dominated front.
func (p Population) FirstFront() Population {
	idx := pareto.Nondominated(p.Points())
	out := make(Population, 0, len(idx))
	for _, i := range idx {
		out = append(out, p[i])
	}
	return out
}

// FeasibleCount returns the number of feasible individuals.
func (p Population) FeasibleCount() int {
	n := 0
	for _, ind := range p {
		if ind.Feasible() {
			n++
		}
	}
	return n
}
