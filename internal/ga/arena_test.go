package ga

import (
	"testing"

	"sacga/internal/benchfn"
	"sacga/internal/rng"
)

// rankedPopulation builds an evaluated random population with a mix of
// feasible and infeasible points.
func rankedPopulation(seed int64, n int) Population {
	prob := benchfn.Constr()
	s := rng.New(seed)
	lo, hi := prob.Bounds()
	pop := NewRandomPopulation(s, n, lo, hi)
	if err := pop.TryEvaluate(prob); err != nil {
		panic(err)
	}
	return pop
}

func TestArenaAssignMatchesPopulationAssign(t *testing.T) {
	ref := rankedPopulation(61, 120)
	got := ref.Clone()
	ref.AssignRanksAndCrowding()
	arena := &Arena{}
	// Run twice through the same arena: the second pass exercises the
	// buffer-reuse paths.
	arena.AssignRanksAndCrowding(got)
	arena.AssignRanksAndCrowding(got)
	for i := range ref {
		if ref[i].Rank != got[i].Rank || ref[i].Crowding != got[i].Crowding {
			t.Fatalf("individual %d: arena (%d, %g) != reference (%d, %g)",
				i, got[i].Rank, got[i].Crowding, ref[i].Rank, ref[i].Crowding)
		}
	}
}

func TestArenaTruncateMatchesPackageTruncate(t *testing.T) {
	pop := rankedPopulation(67, 90)
	pop.AssignRanksAndCrowding()
	want := TruncateByCrowdedComparison(pop, 40)
	arena := &Arena{}
	got := arena.Truncate(pop, 40, nil)
	if len(got) != len(want) {
		t.Fatalf("lengths differ: %d vs %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("survivor %d differs", i)
		}
	}
	// n beyond the population clamps.
	if all := arena.Truncate(pop, 10*len(pop), nil); len(all) != len(pop) {
		t.Fatalf("overlong truncate returned %d of %d", len(all), len(pop))
	}
}

func TestRankSelectorResetReusesBuffers(t *testing.T) {
	pop := rankedPopulation(71, 50)
	pop.AssignRanksAndCrowding()
	fresh := NewRankSelector(pop, 1.8)
	var reused RankSelector
	reused.Reset(rankedPopulation(73, 80), 1.5) // different size first
	reused.Reset(pop, 1.8)
	s1, s2 := rng.New(9), rng.New(9)
	for i := 0; i < 200; i++ {
		if fresh.Pick(s1) != reused.Pick(s2) {
			t.Fatalf("draw %d: reset selector diverged from fresh selector", i)
		}
	}
}

func TestArenaAssignRanksZeroAlloc(t *testing.T) {
	pop := rankedPopulation(79, 150)
	arena := &Arena{}
	arena.AssignRanksAndCrowding(pop) // warm up buffers
	avg := testing.AllocsPerRun(20, func() { arena.AssignRanksAndCrowding(pop) })
	if avg != 0 {
		t.Fatalf("AssignRanksAndCrowding allocates %.1f objects/run at steady state, want 0", avg)
	}
}

func TestArenaTruncateZeroAlloc(t *testing.T) {
	pop := rankedPopulation(83, 150)
	pop.AssignRanksAndCrowding()
	arena := &Arena{}
	dst := make(Population, 0, 60)
	dst = arena.Truncate(pop, 60, dst) // warm up
	avg := testing.AllocsPerRun(20, func() { dst = arena.Truncate(pop, 60, dst) })
	if avg != 0 {
		t.Fatalf("Truncate allocates %.1f objects/run at steady state, want 0", avg)
	}
}

func TestRankSelectorSteadyStateZeroAlloc(t *testing.T) {
	pop := rankedPopulation(89, 100)
	pop.AssignRanksAndCrowding()
	var rs RankSelector
	rs.Reset(pop, 1.8)
	s := rng.New(5)
	avg := testing.AllocsPerRun(20, func() {
		rs.Reset(pop, 1.8)
		for i := 0; i < 50; i++ {
			rs.Pick(s)
		}
	})
	if avg != 0 {
		t.Fatalf("RankSelector allocates %.1f objects/run at steady state, want 0", avg)
	}
}

func TestTournamentSelectZeroAlloc(t *testing.T) {
	pop := rankedPopulation(97, 100)
	pop.AssignRanksAndCrowding()
	s := rng.New(7)
	avg := testing.AllocsPerRun(20, func() {
		for i := 0; i < 50; i++ {
			TournamentSelect(s, pop)
		}
	})
	if avg != 0 {
		t.Fatalf("TournamentSelect allocates %.1f objects/run, want 0", avg)
	}
}
