package expt

import (
	"time"

	"sacga/internal/ga"
	"sacga/internal/hypervolume"
	"sacga/internal/objective"
	"sacga/internal/sched"
	"sacga/internal/search"
	"sacga/internal/sizing"
	"sacga/internal/stats"
)

// Hybrid evaluates the multi-engine schedulers on the integrator problem
// at one evaluation budget, against the plain SACGA run the paper reports:
//
//   - sacga      — the single-engine reference (phase I + annealed II);
//   - relay      — NSGA-II global exploration for a quarter of the budget,
//     handing its population to SACGA for the remainder: the paper's
//     global→local phase transition generalized to an engine pair;
//   - portfolio  — NSGA-II raced against SACGA under the shared budget,
//     per-epoch hypervolume reallocation boosting the leader;
//   - parislands — four concurrent NSGA-II replicas (a quarter of the
//     population each) with ring migration, pooled at the end.
//
// The question each row answers: does mixing whole optimizers buy front
// quality at a fixed number of circuit evaluations, the way mixing
// competition scopes inside one optimizer does?
func Hybrid(c Config) (*Report, error) {
	c.normalize()
	rep := newReport("hybrid", Title("hybrid"))
	total := c.iters(800)
	spec := sizing.PaperSpec()

	variants := []string{"sacga", "relay", "portfolio", "parislands"}
	type job struct{ vi, si int }
	var jobs []job
	for vi := range variants {
		for si := 0; si < c.Seeds; si++ {
			jobs = append(jobs, job{vi, si})
		}
	}
	results := make([]runOut, len(jobs))
	c.parallelRuns(len(jobs), func(i int) {
		j := jobs[i]
		seed := c.Seed + int64(j.si)
		switch variants[j.vi] {
		case "sacga":
			results[i] = c.runSACGA(spec, 8, total, seed)
		case "relay":
			results[i] = c.runRelay(spec, total, seed)
		case "portfolio":
			results[i] = c.runPortfolio(spec, total, seed)
		case "parislands":
			results[i] = c.runParallelIslands(spec, total, seed)
		}
	})
	if err := runsErr(results); err != nil {
		return rep, err
	}

	hv := make(map[string][]float64, len(variants))
	minCL := make(map[string][]float64, len(variants))
	for i, j := range jobs {
		name := variants[j.vi]
		hv[name] = append(hv[name], results[i].hvCover)
		minCL[name] = append(minCL[name], results[i].minCL*1e12)
	}
	for _, name := range variants {
		rep.Values["hv_"+name] = stats.Mean(hv[name])
		rep.Values["min_cl_pF_"+name] = stats.Mean(minCL[name])
		rep.linef("%-11s coverage-HV %.2f, lowest covered load %.2f pF",
			name, stats.Mean(hv[name]), stats.Mean(minCL[name]))
	}
	return rep, nil
}

// runRelay digests the NSGA-II → SACGA relay at the shared budget.
func (c *Config) runRelay(spec sizing.Spec, total int, seed int64) runOut {
	prob := objective.NewCounter(c.problem(spec))
	start := time.Now()
	eng := new(sched.Relay)
	res, err := run(eng, prob, search.Options{
		PopSize:     c.PopSize,
		Generations: total,
		Seed:        seed,
		Extra: &sched.RelayParams{Legs: []sched.Leg{
			{Algo: "nsga2", Generations: total / 4},
			{Algo: "sacga", Extra: c.sacgaParams(8, total)},
		}},
	})
	out := digest("relay", res.Front, prob.Count(), time.Since(start), 0)
	out.err = err
	return out
}

// runPortfolio digests the NSGA-II vs SACGA race, scored on the reported
// (CL, Power) plane.
func (c *Config) runPortfolio(spec sizing.Spec, total int, seed int64) runOut {
	prob := objective.NewCounter(c.problem(spec))
	start := time.Now()
	eng := new(sched.Portfolio)
	// Each member gets the full population, so the race consumes ~2x the
	// per-generation evaluations; halving the generation budget keeps the
	// row budget-comparable with the single-engine reference.
	res, err := run(eng, prob, search.Options{
		PopSize:     c.PopSize,
		Generations: max(total/2, 1),
		Seed:        seed,
		Extra: &sched.PortfolioParams{
			Members: []sched.Member{
				{Algo: "nsga2"},
				{Algo: "sacga", Extra: c.sacgaParams(8, total)},
			},
			Project: func(ind *ga.Individual) (hypervolume.Point2, bool) {
				if !ind.Feasible() {
					return hypervolume.Point2{}, false
				}
				cl, pw := sizing.ReportedPoint(ind.Objectives)
				return hypervolume.Point2{X: cl, Y: pw}, true
			},
		},
	})
	out := digest("portfolio", res.Front, prob.Count(), time.Since(start), 0)
	out.err = err
	return out
}

// runParallelIslands digests four concurrent NSGA-II replicas with ring
// migration at the shared budget (replicas split the population, so the
// per-generation evaluation cost matches the single-engine rows).
func (c *Config) runParallelIslands(spec sizing.Spec, total int, seed int64) runOut {
	prob := objective.NewCounter(c.problem(spec))
	start := time.Now()
	eng := new(sched.ParallelIslands)
	res, err := run(eng, prob, search.Options{
		PopSize:     c.PopSize,
		Generations: total,
		Seed:        seed,
		Extra: &sched.IslandsParams{
			Replicas: 4, Algo: "nsga2",
			MigrationEvery: 10, Migrants: 2,
		},
	})
	out := digest("parislands", res.Front, prob.Count(), time.Since(start), 0)
	out.err = err
	return out
}
