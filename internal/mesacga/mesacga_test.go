package mesacga

import (
	"context"
	"math"
	"testing"

	"sacga/internal/benchfn"
	"sacga/internal/ga"
	"sacga/internal/hypervolume"
	"sacga/internal/objective"
	"sacga/internal/search"
)

// testConfig flattens the run options and the MESACGA parameters into one
// value the fixtures can tweak field by field.
type testConfig struct {
	search.Options
	Params
}

func zdtConfig() testConfig {
	return testConfig{
		Options: search.Options{PopSize: 50, Seed: 1},
		Params: Params{
			Schedule:           []int{8, 4, 2, 1},
			PartitionObjective: 0,
			PartitionLo:        0,
			PartitionHi:        1,
			GentMax:            10,
			Span:               25,
		},
	}
}

func TestRunZDT1(t *testing.T) {
	res := runOK(t, benchfn.ZDT1(8), zdtConfig())
	if len(res.Front) == 0 {
		t.Fatal("empty front")
	}
	if len(res.PhaseFronts) != 4 {
		t.Fatalf("expected 4 phase fronts, got %d", len(res.PhaseFronts))
	}
	if res.Generations != res.GentUsed+4*25 {
		t.Fatalf("generation accounting: %d vs gent %d + 100", res.Generations, res.GentUsed)
	}
}

func TestDefaultScheduleIsPaper(t *testing.T) {
	want := []int{20, 13, 8, 5, 3, 2, 1}
	got := DefaultSchedule()
	if len(got) != len(want) {
		t.Fatalf("schedule %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("schedule %v, want the paper's %v", got, want)
		}
	}
}

func TestEmptyScheduleDefaults(t *testing.T) {
	cfg := zdtConfig()
	cfg.Schedule = nil
	cfg.Span = 5
	res := runOK(t, benchfn.ZDT1(6), cfg)
	if len(res.PhaseFronts) != 7 {
		t.Fatalf("nil schedule should use the paper's 7 phases, got %d", len(res.PhaseFronts))
	}
}

// TestPhaseObserverCalledInOrder watches the phases through a run
// observer: each phase runs its scheduled partition count, and its front is
// recorded in order when it ends.
func TestPhaseObserverCalledInOrder(t *testing.T) {
	cfg := zdtConfig()
	var parts []int // grid size observed inside each phase, in order
	obs := search.ObserverFunc(func(f *search.Frame) {
		e := f.Engine.(*Engine)
		if len(f.Pop) != cfg.PopSize {
			t.Fatalf("generation %d: population of %d", f.Gen, len(f.Pop))
		}
		if e.stage != stagePhases {
			return
		}
		// The Step that ends a phase records its front and re-grids, so
		// after it exactly e.phase fronts exist.
		if len(e.PhaseFronts()) != e.phase {
			t.Fatalf("generation %d: %d phase fronts after %d phases", f.Gen, len(e.PhaseFronts()), e.phase)
		}
		if e.t > 0 && len(parts) == e.phase {
			parts = append(parts, e.inner.Grid().M)
		}
	})
	res := runOK(t, benchfn.ZDT1(6), cfg, obs)
	if len(res.PhaseFronts) != 4 || len(parts) != 4 {
		t.Fatalf("%d phase fronts, %d phases observed, want 4", len(res.PhaseFronts), len(parts))
	}
	for i, m := range parts {
		if m != cfg.Schedule[i] {
			t.Fatalf("partition counts: %v, want %v", parts, cfg.Schedule)
		}
	}
}

func TestPhaseFrontsGenerallyImprove(t *testing.T) {
	// Fig. 10's qualitative content: the hypervolume improves (decreases
	// toward the ideal) across phases. On ZDT1 we use the reference-point
	// hypervolume (higher better) and demand the last phase beats the
	// first.
	res := runOK(t, benchfn.ZDT1(8), zdtConfig())
	ref := hypervolume.Point2{X: 1.1, Y: 10}
	hv := func(front ga.Population) float64 {
		pts := make([]hypervolume.Point2, 0, len(front))
		for _, ind := range front {
			pts = append(pts, hypervolume.Point2{X: ind.Objectives[0], Y: ind.Objectives[1]})
		}
		return hypervolume.RefPoint2D(pts, ref)
	}
	first := hv(res.PhaseFronts[0])
	last := hv(res.PhaseFronts[len(res.PhaseFronts)-1])
	if last <= first {
		t.Fatalf("front should improve across phases: first %g last %g", first, last)
	}
}

func TestTotalBudgetMode(t *testing.T) {
	// With Span unset, Generations is the total budget: the executed
	// iteration count must land within one schedule-length of it,
	// regardless of when phase I terminates.
	cfg := zdtConfig()
	cfg.Span = 0
	cfg.Generations = 97
	res := runOK(t, benchfn.ZDT1(6), cfg)
	if res.Generations > 97 || res.Generations < 97-len(cfg.Schedule) {
		t.Fatalf("generations %d should approach the 97 budget (gent %d)",
			res.Generations, res.GentUsed)
	}
	// Evaluation accounting confirms it end to end.
	cnt := objective.NewCounter(benchfn.ZDT1(6))
	res = runOK(t, cnt, cfg)
	want := int64(cfg.PopSize) * int64(1+res.Generations)
	if cnt.Count() != want {
		t.Fatalf("evaluations %d, want %d", cnt.Count(), want)
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	a := runOK(t, benchfn.ZDT1(6), zdtConfig())
	b := runOK(t, benchfn.ZDT1(6), zdtConfig())
	for i := range a.Final {
		for k := range a.Final[i].X {
			if a.Final[i].X[k] != b.Final[i].X[k] {
				t.Fatal("same seed diverged")
			}
		}
	}
}

func TestFinalPhaseSinglePartitionConverges(t *testing.T) {
	// With the final phase a single partition, MESACGA degenerates to a
	// global GA at the end; the front should be close to ZDT1's optimum.
	res := runOK(t, benchfn.ZDT1(8), zdtConfig())
	worst := 0.0
	for _, ind := range res.Front {
		gap := ind.Objectives[1] - (1 - math.Sqrt(ind.Objectives[0]))
		worst = math.Max(worst, gap)
	}
	if worst > 0.6 {
		t.Fatalf("front too far from optimum after final global phase: %g", worst)
	}
}

func TestPhaseFrontsAreDeepCopies(t *testing.T) {
	res := runOK(t, benchfn.ZDT1(6), zdtConfig())
	// Mutating a phase front must not corrupt the final population.
	for _, front := range res.PhaseFronts {
		for _, ind := range front {
			ind.X[0] = 999
		}
	}
	for _, ind := range res.Final {
		if ind.X[0] == 999 {
			t.Fatal("phase fronts alias the live population")
		}
	}
}

// runOK is search.Run with faults fatal: the fixtures here never fault, so
// any returned error is a regression in the engine.
func runOK(t *testing.T, prob objective.Problem, cfg testConfig, obs ...search.Observer) *Result {
	t.Helper()
	opts, p := cfg.Options, cfg.Params
	opts.Extra = &p
	e := new(Engine)
	if _, err := search.Run(context.Background(), e, prob, opts, obs...); err != nil {
		t.Fatalf("Run: %v", err)
	}
	return e.Result()
}
