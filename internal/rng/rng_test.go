package rng

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
	"time"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Float64() != b.Float64() {
			t.Fatalf("streams with identical seed diverged at draw %d", i)
		}
	}
}

func TestDeriveIndependence(t *testing.T) {
	a := Derive(7, "ga")
	b := Derive(7, "yield")
	same := 0
	for i := 0; i < 100; i++ {
		if a.Float64() == b.Float64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("derived streams with different labels look correlated: %d/100 equal draws", same)
	}
}

func TestDeriveStable(t *testing.T) {
	x := Derive(123, "component").Float64()
	y := Derive(123, "component").Float64()
	if x != y {
		t.Fatal("Derive is not a pure function of (seed,label)")
	}
	if Derive(123, "a").Float64() == Derive(124, "a").Float64() {
		t.Fatal("different master seeds should give different streams")
	}
}

func TestDeriveN(t *testing.T) {
	if DeriveN(1, "run", 0).Float64() == DeriveN(1, "run", 1).Float64() {
		t.Fatal("DeriveN should vary with n")
	}
	a := DeriveN(1, "run", 5).Float64()
	b := DeriveN(1, "run", 5).Float64()
	if a != b {
		t.Fatal("DeriveN not deterministic")
	}
}

func TestUniformRange(t *testing.T) {
	s := New(1)
	for i := 0; i < 10000; i++ {
		v := s.Uniform(-3, 7)
		if v < -3 || v >= 7 {
			t.Fatalf("Uniform(-3,7) out of range: %g", v)
		}
	}
}

func TestLatinHypercubeStratification(t *testing.T) {
	s := New(9)
	const n, dim = 16, 4
	cube := s.LatinHypercube(n, dim)
	if len(cube) != n {
		t.Fatalf("got %d rows, want %d", len(cube), n)
	}
	for d := 0; d < dim; d++ {
		seen := make([]bool, n)
		for i := 0; i < n; i++ {
			v := cube[i][d]
			if v < 0 || v >= 1 {
				t.Fatalf("sample out of [0,1): %g", v)
			}
			k := int(v * n)
			if seen[k] {
				t.Fatalf("dimension %d: stratum %d hit twice — not a Latin hypercube", d, k)
			}
			seen[k] = true
		}
	}
}

func TestLatinHypercubeDegenerate(t *testing.T) {
	s := New(2)
	if got := s.LatinHypercube(0, 3); got != nil {
		t.Fatalf("LatinHypercube(0,3) = %v, want nil", got)
	}
	if got := s.LatinHypercube(3, 0); got != nil {
		t.Fatalf("LatinHypercube(3,0) = %v, want nil", got)
	}
}

func TestLatinHypercubeGaussMeanAndSpread(t *testing.T) {
	s := New(3)
	rows := s.LatinHypercubeGauss(4096, 1)
	sum, sum2 := 0.0, 0.0
	for _, r := range rows {
		sum += r[0]
		sum2 += r[0] * r[0]
	}
	n := float64(len(rows))
	mean := sum / n
	sd := math.Sqrt(sum2/n - mean*mean)
	if math.Abs(mean) > 0.05 {
		t.Fatalf("stratified gaussian mean %g, want ~0", mean)
	}
	if math.Abs(sd-1) > 0.05 {
		t.Fatalf("stratified gaussian sd %g, want ~1", sd)
	}
}

func TestInvNormCDFRoundTrip(t *testing.T) {
	f := func(u float64) bool {
		p := math.Mod(math.Abs(u), 1)
		if p <= 0 || p >= 1 {
			return true
		}
		x := InvNormCDF(p)
		back := NormCDF(x)
		return math.Abs(back-p) < 1e-8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestInvNormCDFKnownValues(t *testing.T) {
	cases := []struct{ p, want float64 }{
		{0.5, 0},
		{0.975, 1.959964},
		{0.025, -1.959964},
		{0.8413447, 0.99999},
	}
	for _, c := range cases {
		got := InvNormCDF(c.p)
		if math.Abs(got-c.want) > 1e-3 {
			t.Errorf("InvNormCDF(%g) = %g, want %g", c.p, got, c.want)
		}
	}
	if !math.IsInf(InvNormCDF(0), -1) || !math.IsInf(InvNormCDF(1), 1) {
		t.Error("InvNormCDF should be -Inf at 0 and +Inf at 1")
	}
}

func TestBoolProbability(t *testing.T) {
	s := New(11)
	n := 0
	const trials = 20000
	for i := 0; i < trials; i++ {
		if s.Bool(0.3) {
			n++
		}
	}
	frac := float64(n) / trials
	if math.Abs(frac-0.3) > 0.02 {
		t.Fatalf("Bool(0.3) frequency %g", frac)
	}
}

func TestPermIsPermutation(t *testing.T) {
	s := New(5)
	p := s.Perm(50)
	seen := make([]bool, 50)
	for _, v := range p {
		if v < 0 || v >= 50 || seen[v] {
			t.Fatalf("not a permutation: %v", p)
		}
		seen[v] = true
	}
}

// drawMix consumes n rounds of mixed draws — every kind of draw the
// engines make, including the variable-consumption ones (Norm's rejection
// sampling, Intn's rejection loop) — and folds the values into a digest.
func drawMix(s *Stream, n int) uint64 {
	var h uint64
	mix := func(v uint64) { h = (h ^ v) * 1099511628211 }
	for i := 0; i < n; i++ {
		switch i % 7 {
		case 0:
			mix(math.Float64bits(s.Float64()))
		case 1:
			mix(uint64(s.Intn(17)))
		case 2:
			mix(math.Float64bits(s.Norm()))
		case 3:
			for _, v := range s.Perm(9) {
				mix(uint64(v))
			}
		case 4:
			s.Shuffle(8, func(a, b int) { mix(uint64(a<<8 | b)) })
		case 5:
			mix(uint64(s.Intn(1<<40 + 3)))
		default:
			if s.Bool(0.3) {
				mix(1)
			}
		}
	}
	return h
}

func mustFromState(t testing.TB, st State) *Stream {
	t.Helper()
	s, err := FromState(st)
	if err != nil {
		t.Fatalf("FromState(seed %d, draws %d): %v", st.Seed, st.Draws, err)
	}
	return s
}

// stateSeeds are the seeds the state properties are checked at: zero (which
// the generator maps to a fixed seed), negatives, the int64 extremes, and
// multiples of the generator's 2^31-1 seed modulus, which all fold to zero.
var stateSeeds = []int64{
	0, 1, -1, 42, 1234, -987654321,
	math.MinInt64, math.MinInt64 + 1, math.MaxInt64,
	1<<31 - 1, 2 * (1<<31 - 1), -(1<<31 - 1), 1<<62 - 1<<62%(1<<31-1),
}

func TestStateRoundTrip(t *testing.T) {
	// Drive a stream through every kind of draw, snapshot mid-way, and
	// check the restored stream continues the original bit for bit.
	s := New(1234)
	drawMix(s, 257)
	r := mustFromState(t, s.State())
	for i := 0; i < 1000; i++ {
		if a, b := s.Float64(), r.Float64(); a != b {
			t.Fatalf("draw %d diverged after restore: %v != %v", i, a, b)
		}
		if a, b := s.Norm(), r.Norm(); a != b {
			t.Fatalf("gaussian %d diverged after restore: %v != %v", i, a, b)
		}
	}
	if a, b := s.State().Draws, r.State().Draws; a != b {
		t.Fatalf("draw counts diverged after restore: %d != %d", a, b)
	}
}

// TestRegisterRestoreMatchesReplay pins the register form against the
// replay it replaced: at every seed and draw count, restoring the carried
// register and replaying (Seed, Draws) from the seed continue the original
// stream identically for the next 10^4 mixed draws.
func TestRegisterRestoreMatchesReplay(t *testing.T) {
	counts := []int{0, 1, 100, 606, 607, 608, 5000, 100000}
	if testing.Short() {
		counts = counts[:6]
	}
	for _, seed := range stateSeeds {
		for _, n := range counts {
			s := New(seed)
			drawMix(s, n)
			st := s.State()
			if len(st.Vec) != 607 {
				t.Fatalf("seed %d: state carries %d register words", seed, len(st.Vec))
			}
			carried := mustFromState(t, st)
			replayed := mustFromState(t, State{Seed: st.Seed, Draws: st.Draws})
			if got, want := replayed.State(), st; got.Tap != want.Tap || got.Feed != want.Feed || !slices.Equal(got.Vec, want.Vec) {
				t.Fatalf("seed %d, %d rounds: replay reached a different register", seed, n)
			}
			want := drawMix(s, 10000)
			if got := drawMix(carried, 10000); got != want {
				t.Fatalf("seed %d, %d rounds: register restore diverged from the original", seed, n)
			}
			if got := drawMix(replayed, 10000); got != want {
				t.Fatalf("seed %d, %d rounds: replay diverged from the original", seed, n)
			}
		}
	}
}

// TestRegisterRestoreIsConstantTime restores a register whose draw count
// is 2^62: a replay could never finish, so returning at all shows the
// restore does not depend on Draws.
func TestRegisterRestoreIsConstantTime(t *testing.T) {
	s := New(7)
	drawMix(s, 50)
	st := s.State()
	st.Draws = 1 << 62
	r := mustFromState(t, st)
	for i := 0; i < 1000; i++ {
		if a, b := s.Float64(), r.Float64(); a != b {
			t.Fatalf("draw %d diverged: %v != %v", i, a, b)
		}
	}
	if got := r.State().Draws; got != 1<<62+1000 {
		t.Fatalf("restored stream counts %d draws, want 2^62+1000", got)
	}
}

func TestFromStateRejectsMalformed(t *testing.T) {
	good := New(3).State()
	with := func(f func(*State)) State {
		st := good
		st.Vec = append([]int64(nil), good.Vec...)
		f(&st)
		return st
	}
	cases := map[string]State{
		"short register":      with(func(st *State) { st.Vec = st.Vec[:606] }),
		"long register":       with(func(st *State) { st.Vec = append(st.Vec, 0) }),
		"negative tap":        with(func(st *State) { st.Tap, st.Feed = -1, 333 }),
		"tap past end":        with(func(st *State) { st.Tap, st.Feed = 607, 334 }),
		"feed off invariant":  with(func(st *State) { st.Feed++ }),
		"feed out of range":   with(func(st *State) { st.Feed = 607 + 334 }),
		"tap without vec":     {Seed: 3, Tap: 1},
		"feed without vec":    {Seed: 3, Feed: 334},
		"one-word register":   {Seed: 3, Vec: []int64{1}},
		"huge tap":            with(func(st *State) { st.Tap = math.MaxInt }),
		"huge negative feed":  with(func(st *State) { st.Feed = math.MinInt }),
		"invariant mod wrong": with(func(st *State) { st.Tap, st.Feed = 300, 634 }),
		"zero register":       with(func(st *State) { clear(st.Vec) }),
		"even register": with(func(st *State) {
			for i := range st.Vec {
				st.Vec[i] &^= 1
			}
		}),
	}
	for name, st := range cases {
		if s, err := FromState(st); err == nil {
			t.Errorf("%s: FromState accepted a malformed state (stream %p)", name, s)
		}
	}
	if _, err := FromState(good); err != nil {
		t.Fatalf("well-formed state rejected: %v", err)
	}
	wrap := with(func(st *State) { st.Tap, st.Feed = 300, 27 })
	if _, err := FromState(wrap); err != nil {
		t.Fatalf("state with a wrapped feed rejected: %v", err)
	}
}

// TestReplayDrawCap: a replay-form state one draw over the cap errors
// without replaying, where a replay would take seconds. The sealed replay
// fixture still resuming is TestReplayFormCheckpointResumes in
// internal/search.
func TestReplayDrawCap(t *testing.T) {
	start := time.Now()
	if s, err := FromState(State{Seed: 5, Draws: maxReplayDraws + 1}); err == nil {
		t.Fatalf("FromState accepted a replay of 2^32+1 draws (stream %p)", s)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("rejecting an over-cap replay took %v", d)
	}
	s := New(5)
	drawMix(s, 100)
	st := s.State()
	st.Tap, st.Feed, st.Vec = 0, 0, nil
	r := mustFromState(t, st)
	if a, b := s.Float64(), r.Float64(); a != b {
		t.Fatalf("replay under the cap diverged: %v != %v", a, b)
	}
}

// FuzzStateRestore: any (Seed, Draws, Tap, Feed, Vec) either is rejected
// with an error or restores a stream that draws in-range values and
// snapshots back to a state FromState accepts. The register is the word
// pattern repeated to n words, so the fuzzer reaches the 607-word length
// without growing 5 KB inputs. A replay-form state costs O(Draws) by
// design, so the fuzzer's draw count is folded to keep each replay short;
// the carried form takes any Draws.
func FuzzStateRestore(f *testing.F) {
	f.Add(int64(1), uint64(0), 0, 0, uint16(0), []byte{})
	f.Add(int64(2), uint64(1000), 0, 0, uint16(0), []byte{})
	f.Add(int64(3), uint64(1<<62), 0, 334, uint16(607), []byte{1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add(int64(4), uint64(5), 606, 333, uint16(607), []byte{0})
	f.Add(int64(5), uint64(5), 273, 0, uint16(607), []byte{0xff})
	f.Add(int64(6), uint64(5), 0, 334, uint16(606), []byte{7})
	f.Add(int64(7), uint64(5), 0, 334, uint16(608), []byte{7})
	f.Add(int64(8), uint64(5), -1, 333, uint16(607), []byte{7})
	f.Add(int64(9), uint64(5), 3, 3, uint16(0), []byte{})
	f.Fuzz(func(t *testing.T, seed int64, draws uint64, tap, feed int, n uint16, pattern []byte) {
		st := State{Seed: seed, Draws: draws, Tap: tap, Feed: feed}
		if n %= 1215; n > 0 {
			st.Vec = make([]int64, n)
			for i := range st.Vec {
				var w int64
				for b := 0; b < 8 && len(pattern) > 0; b++ {
					w = w<<8 | int64(pattern[(8*i+b)%len(pattern)])
				}
				st.Vec[i] = w
			}
		} else {
			st.Draws %= 1 << 16
		}
		s, err := FromState(st)
		if err != nil {
			return
		}
		if v := s.Float64(); v < 0 || v >= 1 {
			t.Fatalf("Float64 = %v", v)
		}
		if v := s.Intn(10); v < 0 || v >= 10 {
			t.Fatalf("Intn(10) = %d", v)
		}
		if v := s.Norm(); math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("Norm = %v", v)
		}
		drawMix(s, 20)
		again := s.State()
		r, err := FromState(again)
		if err != nil {
			t.Fatalf("snapshot of a restored stream rejected: %v", err)
		}
		if a, b := s.Float64(), r.Float64(); a != b {
			t.Fatalf("re-restored stream diverged: %v != %v", a, b)
		}
	})
}

func TestStateFreshStream(t *testing.T) {
	// The zero-draw state restores to the freshly-seeded stream, in both
	// the register and the replay form.
	s := New(77)
	st := s.State()
	if st.Seed != 77 || st.Draws != 0 {
		t.Fatalf("fresh state = %+v", st)
	}
	a, b, c := New(77), mustFromState(t, st), mustFromState(t, State{Seed: 77})
	for i := 0; i < 100; i++ {
		x, y, z := a.Float64(), b.Float64(), c.Float64()
		if x != y || x != z {
			t.Fatalf("fresh restore diverged at %d", i)
		}
	}
}

func TestStateWrapperPreservesSequences(t *testing.T) {
	// The vendored, counting generator must not change the emitted values
	// relative to a bare math/rand generator (bit-compatibility with every
	// sequence recorded before checkpointing existed).
	for _, seed := range stateSeeds {
		s := New(seed)
		r := rand.New(rand.NewSource(seed))
		for i := 0; i < 500; i++ {
			if a, b := s.Float64(), r.Float64(); a != b {
				t.Fatalf("seed %d, value %d: wrapper %v != bare %v", seed, i, a, b)
			}
			if a, b := s.Norm(), r.NormFloat64(); a != b {
				t.Fatalf("seed %d, gaussian %d: wrapper %v != bare %v", seed, i, a, b)
			}
			if a, b := s.Intn(1000003), r.Intn(1000003); a != b {
				t.Fatalf("seed %d, Intn %d: wrapper %v != bare %v", seed, i, a, b)
			}
			if a, b := s.Int63(), r.Int63(); a != b {
				t.Fatalf("seed %d, Int63 %d: wrapper %v != bare %v", seed, i, a, b)
			}
		}
		p, q := s.Perm(20), r.Perm(20)
		for i := range p {
			if p[i] != q[i] {
				t.Fatalf("seed %d: Perm diverged at %d", seed, i)
			}
		}
	}
}

// BenchmarkFloat64 is the cost of one draw through the vendored source.
func BenchmarkFloat64(b *testing.B) {
	s := New(1)
	for b.Loop() {
		s.Float64()
	}
}
