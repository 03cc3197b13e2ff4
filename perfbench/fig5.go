package main

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"sacga/internal/expt"
	"sacga/internal/ga"
	"sacga/internal/hypervolume"
	"sacga/internal/nsga2"
	"sacga/internal/objective"
	"sacga/internal/process"
	"sacga/internal/sacga"
	"sacga/internal/search"
	"sacga/internal/sizing"
	"sacga/internal/stats"
	"sacga/internal/yield"
)

// hvUnit is expt's paper hypervolume unit, 0.1 mW·pF.
const hvUnit = 0.1e-3 * 1e-12

type fig5Params struct {
	Pop         int     `json:"pop"`
	Generations int     `json:"generations"`
	Robust      int     `json:"robust"`
	Partitions  int     `json:"partitions"`
	GentMax     int     `json:"gent_max"`
	Seeds       int     `json:"seeds"`
	HVTarget    float64 `json:"hv_target"`
}

// fig5 runs expt.Fig5's four runs — TPG (nsga2) and 8-partition SACGA on
// the paper integrator spec, two seeds — each driven step by step through
// search.NewDriver, min(nproc, runs) at a time, exactly as expt.Fig5
// configures them. Seed s gives GA seeds s and s+1 and a robustness
// estimator seeded with s (expt.Config{Seed: s, Seeds: 2}).
type fig5 struct {
	p     fig5Params
	seed  int64
	probs []*sizing.Problem // built by setup for the next pass

	ref   *expt.Report    // expt.Fig5's report, computed at the first check
	first []ga.Population // the first pass's fronts
}

// fig5Run is one engine run's outputs.
type fig5Run struct {
	sacga bool
	hv    float64 // final front, expt's paper metric in hvUnit
	front ga.Population
	steps []time.Duration
	// SACGA only: wall time since run start and the feasible reported
	// points after each generation, scored after the pass.
	stamps  []time.Duration
	pts     []hypervolume.Point2 // every generation's points, back to back
	ends    []int                // end of each generation's points in pts
	tthv    time.Duration
	reached bool
	evals   int64
	err     error
	prob    *tracedProblem
	runID   uint64
}

func newFig5(raw json.RawMessage, seed int64) (*fig5, error) {
	f := &fig5{seed: seed}
	if err := json.Unmarshal(raw, &f.p); err != nil {
		return nil, fmt.Errorf("fig5 params: %w", err)
	}
	return f, nil
}

func (f *fig5) runs() int { return 2 * f.p.Seeds }

// setup constructs the runs' problems (expt.Config.problem).
func (f *fig5) setup(bool) error {
	f.probs = make([]*sizing.Problem, f.runs())
	for i := range f.probs {
		f.probs[i] = sizing.New(process.Default018(), sizing.PaperSpec(),
			sizing.WithRobustness(yield.NewEstimator(f.seed, f.p.Robust)))
	}
	return nil
}

func (f *fig5) discard() { f.probs = nil }

func (f *fig5) pass(tr *tracer) (*passOut, error) {
	n := f.runs()
	outs := make([]fig5Run, n)
	workers := min(runtime.NumCPU(), n)
	start := time.Now()
	if workers <= 1 {
		for i := range outs {
			outs[i] = f.run(i, tr)
		}
	} else {
		ga.SharedPool().RunLimit(n, workers, func(i int) { outs[i] = f.run(i, tr) })
	}
	out := &passOut{wall: time.Since(start), data: outs}
	f.probs = nil

	var tthv []float64
	for i := range outs {
		r := &outs[i]
		out.ops = append(out.ops, durMs(r.steps)...)
		out.evals += r.evals
		out.attempted += f.p.Generations
		if r.err != nil || len(r.steps) != f.p.Generations {
			out.failed += f.p.Generations - len(r.steps)
			if r.err != nil {
				out.failed++
			}
			out.failures = append(out.failures, fmt.Sprintf("fig5 run %d: %d of %d steps, err %v", i, len(r.steps), f.p.Generations, r.err))
		}
		r.hv = paperHV(frontPoints(r.front))
		if !r.sacga || len(r.stamps) == 0 {
			continue
		}
		// Scored outside the timed section: the first generation whose
		// front reaches the target (lower is better). A run that never
		// reaches it is censored at its end.
		r.tthv = r.stamps[len(r.stamps)-1]
		begin := 0
		for g, end := range r.ends {
			if paperHV(r.pts[begin:end]) <= f.p.HVTarget {
				r.tthv, r.reached = r.stamps[g], true
				break
			}
			begin = end
		}
		tthv = append(tthv, r.tthv.Seconds())
		r.pts, r.ends = nil, nil
	}
	out.tthv = stats.Mean(tthv)
	return out, nil
}

// run is expt's runTPG / runSACGA with the search.Run loop unrolled so each
// generation is timed.
func (f *fig5) run(i int, tr *tracer) fig5Run {
	r := fig5Run{sacga: i%2 == 1}
	var prob objective.Problem = f.probs[i]
	r.runID = tr.newID()
	if tr != nil {
		r.prob = newTracedProblem(prob, tr, r.runID)
		prob = r.prob
	}
	counted := objective.NewCounter(prob)
	opts := search.Options{PopSize: f.p.Pop, Generations: f.p.Generations, Seed: f.seed + int64(i/2)}
	var eng search.Engine = new(nsga2.Engine)
	label := "nsga2"
	if r.sacga {
		clLo, clHi := sizing.ObjectiveRangeCL()
		opts.Extra = &sacga.Params{
			Partitions:         f.p.Partitions,
			PartitionObjective: 1,
			PartitionLo:        clLo,
			PartitionHi:        clHi,
			GentMax:            f.p.GentMax,
		}
		eng = new(sacga.Engine)
		label = "sacga"
		// Allocated before the clock starts, so recording the points
		// adds no garbage to the timed run.
		r.stamps = make([]time.Duration, 0, f.p.Generations)
		r.ends = make([]int, 0, f.p.Generations)
		r.pts = make([]hypervolume.Point2, 0, f.p.Generations*f.p.Pop)
	}
	ctx := context.Background()
	start := time.Now()
	if err := eng.Init(counted, opts); err != nil {
		r.err = err
		r.evals = counted.Count()
		return r
	}
	d := search.NewDriver(eng)
	for {
		stepID := tr.newID()
		stepLabel := label
		if r.sacga && tr != nil {
			stepLabel = "sacga.phase2"
			if eng.(*sacga.Engine).GentUsed() == 0 {
				stepLabel = "sacga.phase1"
			}
		}
		if r.prob != nil {
			r.prob.parent.Store(stepID)
		}
		t0 := time.Now()
		more, err := d.Step(ctx)
		dur := time.Since(t0)
		if !more && err == nil {
			break
		}
		r.steps = append(r.steps, dur)
		tr.add(span{ID: stepID, Parent: r.runID, Op: r.runID, Name: "search.step", Label: stepLabel,
			Start: t0.UnixNano(), End: t0.UnixNano() + int64(dur)})
		if r.sacga {
			r.stamps = append(r.stamps, time.Since(start))
			r.pts = appendPoints(r.pts, eng.Population())
			r.ends = append(r.ends, len(r.pts))
		}
		if err != nil {
			r.err = err
			break
		}
	}
	tr.add(span{ID: r.runID, Op: r.runID, Name: "fig5.run", Label: label,
		Start: start.UnixNano(), End: start.UnixNano() + int64(time.Since(start))})
	r.front = d.Result().Front
	r.evals = counted.Count()
	return r
}

// frontPoints is expt's digest projection: feasible individuals in the
// reported (CL, Power) plane. PaperMetric reduces any point set to its
// non-dominated staircase, so a whole population scores like its front.
func frontPoints(pop ga.Population) []hypervolume.Point2 {
	return appendPoints(make([]hypervolume.Point2, 0, len(pop)), pop)
}

func appendPoints(pts []hypervolume.Point2, pop ga.Population) []hypervolume.Point2 {
	for _, ind := range pop {
		if !ind.Feasible() {
			continue
		}
		cl, pw := sizing.ReportedPoint(ind.Objectives)
		pts = append(pts, hypervolume.Point2{X: cl, Y: pw})
	}
	return pts
}

func paperHV(pts []hypervolume.Point2) float64 { return hypervolume.PaperMetric(pts) / hvUnit }

// verify checks a pass against expt.Fig5, run once with the same
// configuration: the per-seed HV means must equal its hv_tpg and hv_sacga
// exactly, and every pass must reproduce the first pass's fronts.
func (f *fig5) verify(p *passOut) ([]string, int) {
	runs := p.data.([]fig5Run)
	if f.ref == nil {
		rep, err := expt.Fig5(expt.Config{Seed: f.seed, Seeds: f.p.Seeds, PopSize: f.p.Pop,
			RobustSamples: f.p.Robust, Scale: float64(f.p.Generations) / 800})
		if err != nil {
			return []string{fmt.Sprintf("expt.Fig5: %v", err)}, 1
		}
		f.ref = rep
		for _, r := range runs {
			f.first = append(f.first, r.front)
		}
		fmt.Printf("check    expt.Fig5 hv_tpg %.4f hv_sacga %.4f\n", rep.Values["hv_tpg"], rep.Values["hv_sacga"])
		f.printQuality(runs)
	}
	var fails []string
	var hvT, hvS []float64
	for i := 0; i < len(runs); i += 2 {
		hvT = append(hvT, runs[i].hv)
		hvS = append(hvS, runs[i+1].hv)
	}
	if got, want := stats.Mean(hvT), f.ref.Values["hv_tpg"]; got != want {
		fails = append(fails, fmt.Sprintf("hv_tpg %v, expt.Fig5 reports %v", got, want))
	}
	if got, want := stats.Mean(hvS), f.ref.Values["hv_sacga"]; got != want {
		fails = append(fails, fmt.Sprintf("hv_sacga %v, expt.Fig5 reports %v", got, want))
	}
	for i := range runs {
		if !samePop(runs[i].front, f.first[i]) {
			fails = append(fails, fmt.Sprintf("run %d: front differs from the first pass", i))
		}
	}
	return fails, 2 + len(runs)
}

// printQuality reports the paper's claim per seed rather than gating on
// it: at 800 generations SACGA does not beat TPG on every seed.
func (f *fig5) printQuality(runs []fig5Run) {
	for i := 0; i < len(runs); i += 2 {
		t, s := runs[i], runs[i+1]
		verdict := "beats"
		if !(s.hv < t.hv) {
			verdict = "does not beat"
		}
		reach := fmt.Sprintf("reached target %.4f after %.3f s", f.p.HVTarget, s.tthv.Seconds())
		if !s.reached {
			reach = fmt.Sprintf("never reached target %.4f", f.p.HVTarget)
		}
		fmt.Printf("quality  seed %d: SACGA hv %.4f %s TPG %.4f (lower is better); SACGA %s\n",
			f.seed+int64(i/2), s.hv, verdict, t.hv, reach)
	}
}

// samePop reports bit-identical decision vectors and objectives.
func samePop(a, b ga.Population) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !sameFloats(a[i].X, b[i].X) || !sameFloats(a[i].Objectives, b[i].Objectives) || a[i].Violation != b[i].Violation {
			return false
		}
	}
	return true
}

func sameFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// layers derives the search and objective metrics from the step spans and
// their evaluation children.
func (f *fig5) layers(tr *tracer, p *passOut) map[string]float64 {
	out := map[string]float64{}
	steps := tr.named("search.step")
	self := selfTimes(steps, tr.named("objective.batch"))
	var all, nsga, ph1, ph2 []float64
	var stepNs, selfNs int64
	for _, s := range steps {
		ms := float64(self[s.ID]) / 1e6
		all = append(all, ms)
		stepNs += int64(s.dur())
		selfNs += int64(self[s.ID])
		switch s.Label {
		case "nsga2":
			nsga = append(nsga, ms)
		case "sacga.phase1":
			ph1 = append(ph1, ms)
		case "sacga.phase2":
			ph2 = append(ph2, ms)
		}
	}
	out["search.steps"] = float64(len(steps))
	out["search.step_self_ms_p50"] = median(all)
	out["search.self_share"] = ratio(float64(selfNs), float64(stepNs))
	out["nsga2.step_self_ms_p50"] = median(nsga)
	out["sacga.phase1_step_self_ms_p50"] = median(ph1)
	out["sacga.phase2_step_self_ms_p50"] = median(ph2)
	var ev evalStats
	for _, r := range p.data.([]fig5Run) {
		ev.addProblem(r.prob)
	}
	ev.metrics(out, ratio(float64(stepNs-selfNs), float64(stepNs)))
	out["share objective.busy_s / search step time"] = ratio(float64(ev.BusyNs), float64(stepNs))
	return out
}
