// Checkpoint restore across RNG state forms: a checkpoint written before
// streams carried their generator register still resumes bit-identically,
// and restoring costs the same early and late in a run.
package search_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"

	"sacga/internal/benchfn"
	"sacga/internal/ga"
	"sacga/internal/islands"
	"sacga/internal/mesacga"
	"sacga/internal/nsga2"
	"sacga/internal/rng"
	"sacga/internal/sacga"
	"sacga/internal/search"
)

// replayFixture is a sealed nsga2 checkpoint whose RNG state is the
// seed-and-draw-count form: zdt1 with 30 variables, pop 24, seed 50,
// Generations 60, taken at generation 50.
const replayFixture = "testdata/nsga2-zdt1-pop24-gen50.ckpt"

// replayFixtureFront digests the generation-60 front of that run as the
// code that wrote the fixture computed it; see frontDigest.
const replayFixtureFront = "a625900a3533c8d3bfadfde805345342c7618801d207c9d2f0891cd3d749a509"

func replayFixtureOpts() search.Options {
	return search.Options{PopSize: 24, Generations: 60, Seed: 50}
}

// frontDigest hashes a front's genes and objectives, in order, bit for bit.
func frontDigest(front ga.Population) string {
	h := sha256.New()
	for _, ind := range front {
		fmt.Fprintf(h, "%x %x\n", ind.X, ind.Objectives)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestReplayFormCheckpointResumes restores the fixture through the replay
// path, runs 10 more generations, and requires the front of the
// uninterrupted 60-generation run, bit for bit. The restored stream must
// also reach the register the uninterrupted run holds at generation 50.
func TestReplayFormCheckpointResumes(t *testing.T) {
	data, err := os.ReadFile(replayFixture)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := search.DecodeCheckpoint(replayFixture, data)
	if err != nil {
		t.Fatal(err)
	}
	sn, ok := cp.State.(*nsga2.Snapshot)
	if !ok {
		t.Fatalf("fixture state is %T", cp.State)
	}
	if cp.Gen != 50 || len(sn.RNG.Vec) != 0 || sn.RNG.Draws == 0 {
		t.Fatalf("fixture is not a replay-form generation-50 checkpoint: gen %d, %d register words, %d draws",
			cp.Gen, len(sn.RNG.Vec), sn.RNG.Draws)
	}
	prob := benchfn.ZDT1(30)

	whole, err := search.New("nsga2")
	if err != nil {
		t.Fatal(err)
	}
	if err := whole.Init(prob, replayFixtureOpts()); err != nil {
		t.Fatal(err)
	}
	var atCheckpoint *search.Checkpoint
	for !whole.Done() {
		if err := whole.Step(); err != nil {
			t.Fatal(err)
		}
		if whole.Generation() == cp.Gen {
			atCheckpoint = whole.Checkpoint()
		}
	}

	restored, err := search.New("nsga2")
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.Restore(prob, replayFixtureOpts(), cp); err != nil {
		t.Fatal(err)
	}
	got, want := restored.Checkpoint().State.(*nsga2.Snapshot).RNG, atCheckpoint.State.(*nsga2.Snapshot).RNG
	if got.Draws != want.Draws || got.Tap != want.Tap || got.Feed != want.Feed || !slices.Equal(got.Vec, want.Vec) {
		t.Fatalf("replayed stream at draw %d does not match the live one at draw %d", got.Draws, want.Draws)
	}
	res, err := search.Resume(context.Background(), restored, prob, replayFixtureOpts(), cp)
	if err != nil {
		t.Fatal(err)
	}
	if res.Generations != 60 {
		t.Fatalf("resumed run ended at generation %d, want 60", res.Generations)
	}
	popsIdentical(t, "final", whole.Population(), res.Final)
	popsIdentical(t, "front", whole.Population().FirstFront(), res.Front)
	if d := frontDigest(res.Front); d != replayFixtureFront {
		t.Fatalf("resumed front digest %s, the fixture's run recorded %s", d, replayFixtureFront)
	}
}

// TestRestoreRejectsMalformedRNG seals a checkpoint of every engine whose
// RNG register was cut short after capture — a payload the CRC vouches
// for — and requires Restore to return an error rather than panic.
func TestRestoreRejectsMalformedRNG(t *testing.T) {
	for _, tc := range cases() {
		t.Run(tc.label, func(t *testing.T) {
			prob := tc.prob()
			eng, err := search.New(tc.name)
			if err != nil {
				t.Fatal(err)
			}
			if err := eng.Init(prob, tc.opts()); err != nil {
				t.Fatal(err)
			}
			if err := eng.Step(); err != nil {
				t.Fatal(err)
			}
			cp := eng.Checkpoint()
			for _, st := range rngStates(t, cp) {
				st.Vec = st.Vec[:len(st.Vec)-1]
			}
			data, err := search.EncodeCheckpoint(cp)
			if err != nil {
				t.Fatal(err)
			}
			sealed, err := search.DecodeCheckpoint("test", data)
			if err != nil {
				t.Fatal(err)
			}
			fresh, err := search.New(tc.name)
			if err != nil {
				t.Fatal(err)
			}
			err = fresh.Restore(prob, tc.opts(), sealed)
			if err == nil || !strings.Contains(err.Error(), "rng:") {
				t.Fatalf("Restore of a malformed RNG state returned %v, want an rng error", err)
			}
		})
	}
}

// rngStates returns pointers to every RNG state an engine checkpoint
// carries.
func rngStates(t *testing.T, cp *search.Checkpoint) []*rng.State {
	t.Helper()
	switch sn := cp.State.(type) {
	case *nsga2.Snapshot:
		return []*rng.State{&sn.RNG}
	case *sacga.Snapshot:
		return []*rng.State{&sn.RNG}
	case *mesacga.Snapshot:
		return []*rng.State{&sn.Inner.RNG}
	case *islands.Snapshot:
		out := make([]*rng.State, len(sn.RNG))
		for k := range sn.RNG {
			out[k] = &sn.RNG[k]
		}
		return out
	}
	t.Fatalf("no RNG state known in %T", cp.State)
	return nil
}

// benchmarkRestoreAt decodes and restores a sealed pop-100 zdt1 nsga2
// checkpoint taken at generation gen. Its cost must not grow with gen. The
// run that builds the checkpoint is outside b.Loop, so it runs once and is
// not timed.
func benchmarkRestoreAt(b *testing.B, gen int) {
	prob := benchfn.ZDT1(30)
	opts := search.Options{PopSize: 100, Generations: gen, Seed: 1}
	eng, err := search.New("nsga2")
	if err != nil {
		b.Fatal(err)
	}
	if _, err := search.Run(context.Background(), eng, prob, opts); err != nil {
		b.Fatal(err)
	}
	data, err := search.EncodeCheckpoint(eng.Checkpoint())
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	for b.Loop() {
		cp, err := search.DecodeCheckpoint("bench", data)
		if err != nil {
			b.Fatal(err)
		}
		if err := eng.Restore(prob, opts, cp); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRestoreGen100(b *testing.B) { benchmarkRestoreAt(b, 100) }

func BenchmarkRestoreGen1600(b *testing.B) { benchmarkRestoreAt(b, 1600) }
