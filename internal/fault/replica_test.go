// Scheduler degradation under replica faults: failing and hanging child
// engines are dropped at epoch barriers in replica-index order, survivors
// finish deterministically at any worker count, and the liveness state
// survives a durable checkpoint round trip.
package fault_test

import (
	"context"
	"errors"
	"path/filepath"
	"testing"
	"time"

	"sacga/internal/nsga2"
	"sacga/internal/objective"
	"sacga/internal/rng"
	"sacga/internal/sched"
	"sacga/internal/search"
)

// chaosParams configures the chaos replica engine. Schedulers hand the same
// Extra to every replica, so the faulty one is selected by its derived seed
// — which is how a test targets "replica 1" deterministically.
type chaosParams struct {
	// TargetSeed marks the misbehaving replica: the one whose
	// Options.Seed matches (see rng.ChildSeed).
	TargetSeed int64
	// All makes every replica misbehave regardless of seed.
	All bool
	// Hang blocks the targeted Step forever (a watchdog must reclaim or
	// abandon it) instead of returning errInjectedStep.
	Hang bool
}

var errInjectedStep = errors.New("fault test: injected replica step failure")

// chaosReplica is an nsga2 engine whose Step misbehaves when this replica
// is the configured target — the scheduler-level analogue of an injected
// evaluation fault.
type chaosReplica struct {
	*nsga2.Engine
	p    chaosParams
	seed int64
}

func init() {
	search.Register("chaos-replica", func() search.Engine { return &chaosReplica{Engine: new(nsga2.Engine)} })
}

// capture peels the chaos configuration off Options.Extra (the inner nsga2
// engine requires a nil Extra) and records the replica's identity.
func (c *chaosReplica) capture(opts *search.Options) {
	if p, ok := opts.Extra.(*chaosParams); ok {
		c.p = *p
	}
	c.seed = opts.Seed
	opts.Extra = nil
}

func (c *chaosReplica) Init(prob objective.Problem, opts search.Options) error {
	c.capture(&opts)
	return c.Engine.Init(prob, opts)
}

func (c *chaosReplica) Restore(prob objective.Problem, opts search.Options, cp *search.Checkpoint) error {
	c.capture(&opts)
	return c.Engine.Restore(prob, opts, cp)
}

func (c *chaosReplica) Step() error {
	if c.p.All || c.seed == c.p.TargetSeed {
		if c.p.Hang {
			select {} // never returns; the goroutine is abandoned by design
		}
		return errInjectedStep
	}
	return c.Engine.Step()
}

// islandsChaosOpts builds a three-replica ParallelIslands run over
// chaos-replica engines.
func islandsChaosOpts(stepWorkers int, cp chaosParams, timeout time.Duration) search.Options {
	return search.Options{
		PopSize: 24, Generations: 10, Seed: 7,
		Extra: &sched.IslandsParams{
			Replicas: 3, Algo: "chaos-replica", Extra: &cp,
			MigrationEvery: 4, Migrants: 2, Topology: sched.Ring,
			StepWorkers: stepWorkers, StepTimeout: timeout,
		},
	}
}

// replicaTarget is replica i's derived seed under scheduler seed 7.
func replicaTarget(label string, i int) int64 { return rng.ChildSeed(7, label, i) }

// runDegraded drives a scheduler run expected to end with a *ReplicaError
// and a valid pooled result.
func runDegraded(t *testing.T, name string, opts search.Options) (*search.Result, *sched.ReplicaError) {
	t.Helper()
	eng, err := search.New(name)
	if err != nil {
		t.Fatal(err)
	}
	res, err := search.Run(context.Background(), eng, zdt1(), opts)
	var re *sched.ReplicaError
	if !errors.As(err, &re) {
		t.Fatalf("error is %T (%v), want *sched.ReplicaError", err, err)
	}
	if res == nil {
		t.Fatal("no pooled result alongside the replica error")
	}
	return res, re
}

// TestIslandsDropFailingReplicaDeterministically: replica 1's Step fails
// every attempt, so it is dropped at the first epoch barrier after the
// retry budget; the survivors finish, the dead replica's last-good
// population stays pooled, and the outcome is bit-identical at any
// StepWorkers.
func TestIslandsDropFailingReplicaDeterministically(t *testing.T) {
	cp := chaosParams{TargetSeed: replicaTarget("sched/replica", 1)}
	want, wantErr := runDegraded(t, "parallel-islands", islandsChaosOpts(1, cp, 0))
	if len(wantErr.Dropped) != 1 || wantErr.Dropped[0] != 1 {
		t.Fatalf("dropped %v, want [1]", wantErr.Dropped)
	}
	if wantErr.AllDead {
		t.Fatal("two replicas survived but AllDead is set")
	}
	if !errors.Is(wantErr, errInjectedStep) {
		t.Fatalf("error chain lost the step failure: %v", wantErr)
	}
	// Dead (not poisoned) replicas keep their last-good population in the
	// pooled view: the full budget-matched population remains.
	if len(want.Final) != 24 {
		t.Fatalf("pooled population has %d individuals, want 24", len(want.Final))
	}
	popSane(t, want.Final)

	for _, workers := range []int{2, 4} {
		got, gotErr := runDegraded(t, "parallel-islands", islandsChaosOpts(workers, cp, 0))
		if len(gotErr.Dropped) != 1 || gotErr.Dropped[0] != 1 {
			t.Fatalf("workers=%d: dropped %v, want [1]", workers, gotErr.Dropped)
		}
		popsIdentical(t, "degraded islands population", want.Final, got.Final)
	}
}

// TestIslandsNegativeRetriesDropReplica: StepRetries < 0 means no
// retries, so the failing replica is dropped at the first barrier, like an
// exhausted retry budget, and the run ends exactly as it does with the
// default budget (an always-failing replica fails every retry too).
func TestIslandsNegativeRetriesDropReplica(t *testing.T) {
	cp := chaosParams{TargetSeed: replicaTarget("sched/replica", 1)}
	opts := islandsChaosOpts(2, cp, 0)
	opts.Extra.(*sched.IslandsParams).StepRetries = -1
	got, gotErr := runDegraded(t, "parallel-islands", opts)
	if len(gotErr.Dropped) != 1 || gotErr.Dropped[0] != 1 || gotErr.AllDead {
		t.Fatalf("dropped %v (all dead %v), want [1] with survivors", gotErr.Dropped, gotErr.AllDead)
	}
	want, _ := runDegraded(t, "parallel-islands", islandsChaosOpts(2, cp, 0))
	popsIdentical(t, "no-retry islands population", want.Final, got.Final)
}

// TestIslandsHungReplicaAbandonedByWatchdog pins the third acceptance
// criterion: a replica whose Step hangs trips the per-replica watchdog, is
// poisoned (the runaway goroutine still owns its buffers) and excluded from
// the pooled result, and the scheduler finishes deterministically without
// it.
func TestIslandsHungReplicaAbandonedByWatchdog(t *testing.T) {
	cp := chaosParams{TargetSeed: replicaTarget("sched/replica", 1), Hang: true}
	timeout := 50 * time.Millisecond

	want, wantErr := runDegraded(t, "parallel-islands", islandsChaosOpts(1, cp, timeout))
	if len(wantErr.Dropped) != 1 || wantErr.Dropped[0] != 1 {
		t.Fatalf("dropped %v, want [1]", wantErr.Dropped)
	}
	var we *search.WatchdogError
	if !errors.As(wantErr, &we) || !we.Abandoned {
		t.Fatalf("dropped cause is %v, want an abandoned *search.WatchdogError", wantErr.Errs[0])
	}
	// Poisoned replicas are excluded from pooling: only the two surviving
	// 8-individual shares remain.
	if len(want.Final) != 16 {
		t.Fatalf("pooled population has %d individuals, want 16", len(want.Final))
	}
	popSane(t, want.Final)

	got, _ := runDegraded(t, "parallel-islands", islandsChaosOpts(4, cp, timeout))
	popsIdentical(t, "watchdog-degraded islands population", want.Final, got.Final)
}

// TestIslandsAllReplicasDead: when every replica fails, the scheduler
// finalizes immediately with AllDead set, and the result still carries the
// pooled last-good populations.
func TestIslandsAllReplicasDead(t *testing.T) {
	res, re := runDegraded(t, "parallel-islands", islandsChaosOpts(2, chaosParams{All: true}, 0))
	if !re.AllDead {
		t.Fatal("AllDead not set with every replica failing")
	}
	if len(re.Dropped) != 3 {
		t.Fatalf("dropped %v, want all three replicas", re.Dropped)
	}
	if len(res.Final) != 24 {
		t.Fatalf("pooled last-good population has %d individuals, want 24", len(res.Final))
	}
	popSane(t, res.Final)
}

// TestPortfolioDropsFailingMember: a portfolio member whose Step always
// fails is dropped at the epoch barrier; the race continues on the
// survivor, the dead member's last-good population stays pooled, and the
// outcome is bit-identical at any StepWorkers.
func TestPortfolioDropsFailingMember(t *testing.T) {
	mk := func(stepWorkers int) search.Options {
		return search.Options{
			PopSize: 16, Generations: 8, Seed: 3,
			Extra: &sched.PortfolioParams{
				Members: []sched.Member{
					{Algo: "nsga2"},
					{Algo: "chaos-replica", Extra: &chaosParams{All: true}},
				},
				StepWorkers: stepWorkers,
			},
		}
	}
	want, wantErr := runDegraded(t, "portfolio", mk(1))
	if len(wantErr.Dropped) != 1 || wantErr.Dropped[0] != 1 {
		t.Fatalf("dropped %v, want [1]", wantErr.Dropped)
	}
	if wantErr.Scheduler != "portfolio" {
		t.Fatalf("scheduler %q, want portfolio", wantErr.Scheduler)
	}
	if !errors.Is(wantErr, errInjectedStep) {
		t.Fatalf("error chain lost the step failure: %v", wantErr)
	}
	if len(want.Final) != 32 {
		t.Fatalf("pooled population has %d individuals, want 32 (both members)", len(want.Final))
	}
	popSane(t, want.Final)

	got, _ := runDegraded(t, "portfolio", mk(2))
	popsIdentical(t, "degraded portfolio population", want.Final, got.Final)
}

// TestIslandsDegradedCheckpointRoundTrip: the liveness state (which
// replicas are dead) survives a durable save/load cycle, and a run resumed
// from a degraded checkpoint finishes bit-identically to the original.
func TestIslandsDegradedCheckpointRoundTrip(t *testing.T) {
	opts := islandsChaosOpts(2, chaosParams{TargetSeed: replicaTarget("sched/replica", 1)}, 0)
	eng, err := search.New("parallel-islands")
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Init(zdt1(), opts); err != nil {
		t.Fatal(err)
	}
	stepTo(t, eng, 5) // replica 1 is dropped at the first barrier, silently mid-run

	path := filepath.Join(t.TempDir(), "degraded.ckpt")
	if err := search.SaveCheckpoint(path, eng.Checkpoint()); err != nil {
		t.Fatal(err)
	}
	loaded, err := search.LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}

	// Finish the original run.
	var origErr error
	for !eng.Done() {
		if err := eng.Step(); err != nil {
			origErr = err
		}
	}
	var origRe *sched.ReplicaError
	if !errors.As(origErr, &origRe) || len(origRe.Dropped) != 1 || origRe.Dropped[0] != 1 {
		t.Fatalf("original run error %v, want a *sched.ReplicaError dropping [1]", origErr)
	}

	// Resume from the degraded checkpoint: the dead replica must stay dead.
	resumed, err := search.New("parallel-islands")
	if err != nil {
		t.Fatal(err)
	}
	res, err := search.Resume(context.Background(), resumed, zdt1(), opts, loaded)
	var re *sched.ReplicaError
	if !errors.As(err, &re) || len(re.Dropped) != 1 || re.Dropped[0] != 1 {
		t.Fatalf("resumed run error %v, want a *sched.ReplicaError dropping [1]", err)
	}
	popsIdentical(t, "degraded checkpoint round trip", eng.Population(), res.Final)
}

// TestIslandsPoisonedCheckpointRoundTrip: a composite snapshot containing a
// poisoned replica (whose state is unrecoverable) still saves durably — the
// placeholder entry keeps the gob stream encodable — and the resumed run
// finishes without the poisoned replica, bit-identically to the original.
func TestIslandsPoisonedCheckpointRoundTrip(t *testing.T) {
	opts := islandsChaosOpts(2, chaosParams{TargetSeed: replicaTarget("sched/replica", 1), Hang: true}, 50*time.Millisecond)
	eng, err := search.New("parallel-islands")
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Init(zdt1(), opts); err != nil {
		t.Fatal(err)
	}
	stepTo(t, eng, 3) // replica 1 hangs, is abandoned and poisoned at epoch 1

	path := filepath.Join(t.TempDir(), "poisoned.ckpt")
	if err := search.SaveCheckpoint(path, eng.Checkpoint()); err != nil {
		t.Fatalf("saving a poisoned composite snapshot: %v", err)
	}
	loaded, err := search.LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}

	var origErr error
	for !eng.Done() {
		if err := eng.Step(); err != nil {
			origErr = err
		}
	}
	var origRe *sched.ReplicaError
	if !errors.As(origErr, &origRe) || len(origRe.Dropped) != 1 {
		t.Fatalf("original run error %v, want a *sched.ReplicaError dropping [1]", origErr)
	}

	resumed, err := search.New("parallel-islands")
	if err != nil {
		t.Fatal(err)
	}
	res, err := search.Resume(context.Background(), resumed, zdt1(), opts, loaded)
	var re *sched.ReplicaError
	if !errors.As(err, &re) || len(re.Dropped) != 1 || re.Dropped[0] != 1 {
		t.Fatalf("resumed run error %v, want a *sched.ReplicaError dropping [1]", err)
	}
	if len(res.Final) != 16 {
		t.Fatalf("resumed pooled population has %d individuals, want 16", len(res.Final))
	}
	popsIdentical(t, "poisoned checkpoint round trip", eng.Population(), res.Final)
}
