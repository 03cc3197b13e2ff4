// Package rng provides deterministic random-number utilities used across
// the optimizer and the Monte-Carlo robustness estimator.
//
// Every stochastic component in this repository draws from a *Stream that is
// derived from a single master seed, so a run is bit-reproducible given the
// seed, and independent components (e.g. the GA operators and the yield
// estimator) do not perturb each other's sequences when one of them changes
// how many numbers it consumes.
//
// The generator is math/rand's additive lagged-Fibonacci source, vendored in
// source.go so a Stream can snapshot and restore its register. Every
// sequence is bit-identical to rand.New(rand.NewSource(seed)).
package rng

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
)

// Stream is a deterministic random number stream. It wraps math/rand with a
// few domain helpers (gaussians, Latin-hypercube samples, shuffles).
//
// State captures a Stream's generator register and FromState copies it back
// — the checkpoint/resume primitive of the search engines. Both are
// O(register), whatever the stream's age. Snapshots are exact: a restored
// stream emits bit-identical values to the original.
type Stream struct {
	r    *rand.Rand
	src  *countingSource
	seed int64
}

// countingSource is math/rand's generator with a raw-draw counter. Both
// Int63 and Uint64 advance the generator by exactly one step. Implementing
// rand.Source64 matters: rand.New special-cases Source64, and wrapping must
// not change which code path (and therefore which values) rand.Rand uses.
type countingSource struct {
	rngSource
	n uint64
}

func (c *countingSource) Int63() int64 { c.n++; return c.rngSource.Int63() }

func (c *countingSource) Uint64() uint64 { c.n++; return c.rngSource.Uint64() }

// New returns a Stream seeded with seed.
func New(seed int64) *Stream {
	src := &countingSource{}
	src.Seed(seed)
	return &Stream{r: rand.New(src), src: src, seed: seed}
}

// State is a serializable snapshot of a Stream: the seed it was created
// with, the number of raw draws consumed since, and the generator register
// (Tap, Feed, Vec) at that point.
//
// A State with no Vec is the seed-and-draw-count form that checkpoints
// written before the register was carried hold; gob matches fields by name,
// so those still decode, and FromState replays them from the seed.
type State struct {
	Seed  int64
	Draws uint64
	// Tap and Feed index Vec; the generator keeps Feed == (Tap+334) % 607.
	Tap, Feed int
	// Vec is the 607-word feedback register, or empty in the replay form.
	Vec []int64
}

// feedOffset is the generator's fixed distance from tap to feed.
const feedOffset = rngLen - rngTap

// State captures the stream's current position: a copy of the register,
// about 5.5 KB once gob-encoded.
func (s *Stream) State() State {
	src := s.src
	return State{
		Seed:  s.seed,
		Draws: src.n,
		Tap:   src.tap,
		Feed:  src.feed,
		Vec:   append([]int64(nil), src.vec[:]...),
	}
}

// maxReplayDraws caps the draw count of a replay-form State: about 4 s of
// replay at about 1 ns a draw. Real runs stay far below it: nsga2 on zdt1
// at pop 100 for 1600 generations draws 9.65M values, and sacga on the
// integrator at pop 100 for 800 generations 2.59M. Without the cap, one
// forged checkpoint claiming 2^60 draws would hang its restorer.
const maxReplayDraws = 1 << 32

// FromState reconstructs the exact stream a State was captured from: the
// next value drawn from the result is bit-identical to the next value the
// snapshotted stream would have produced. A carried register is copied, so
// the restore costs the same at any Draws. The replay form (no Vec) is
// rebuilt by seeding and discarding Draws values, O(Draws) at about 1 ns a
// draw, so its Draws may not exceed maxReplayDraws. A malformed State — a
// Vec that is neither empty nor 607 words, a Tap out of range, a Feed off
// the generator's invariant, a register no seed reaches, Tap/Feed set
// without a Vec, or a replay longer than the cap — is an error.
func FromState(st State) (*Stream, error) {
	src := &countingSource{n: st.Draws}
	switch len(st.Vec) {
	case 0:
		if st.Tap != 0 || st.Feed != 0 {
			return nil, fmt.Errorf("rng: state carries tap %d and feed %d but no register", st.Tap, st.Feed)
		}
		if st.Draws > maxReplayDraws {
			return nil, fmt.Errorf("rng: replay-form state claims %d draws, more than the %d a restore replays", st.Draws, uint64(maxReplayDraws))
		}
		src.Seed(st.Seed)
		for i := uint64(0); i < st.Draws; i++ {
			src.rngSource.Uint64()
		}
	case rngLen:
		if st.Tap < 0 || st.Tap >= rngLen {
			return nil, fmt.Errorf("rng: state tap %d outside [0,%d)", st.Tap, rngLen)
		}
		if want := (st.Tap + feedOffset) % rngLen; st.Feed != want {
			return nil, fmt.Errorf("rng: state feed %d, tap %d requires feed %d", st.Feed, st.Tap, want)
		}
		if !hasOddWord(st.Vec) {
			return nil, fmt.Errorf("rng: state register has no odd word")
		}
		src.tap, src.feed = st.Tap, st.Feed
		copy(src.vec[:], st.Vec)
	default:
		return nil, fmt.Errorf("rng: state register has %d words, want %d", len(st.Vec), rngLen)
	}
	return &Stream{r: rand.New(src), src: src, seed: st.Seed}, nil
}

// hasOddWord reports whether a register can belong to a seeded stream. The
// low bits of the register evolve as a linear feedback shift register, so a
// register with an odd word keeps one forever, and every seed's register
// has one among its first 31 words (checked over all 2^31-1 distinct
// seeds). An all-even register stays all-even: its outputs lose low-order
// variety, and the all-zero one emits only zeros, on which Shuffle's
// rejection sampling never terminates.
func hasOddWord(vec []int64) bool {
	for _, w := range vec {
		if w&1 != 0 {
			return true
		}
	}
	return false
}

// Derive returns a child stream whose seed is a deterministic function of
// this stream's seed-state-independent label. Deriving never consumes
// numbers from the parent: two components deriving with distinct labels get
// independent, stable sequences.
func Derive(master int64, label string) *Stream {
	h := fnv.New64a()
	var buf [8]byte
	for i := 0; i < 8; i++ {
		buf[i] = byte(master >> (8 * i))
	}
	h.Write(buf[:])
	h.Write([]byte(label))
	return New(int64(h.Sum64()))
}

// DeriveN returns a child stream labelled by an integer, e.g. a run index.
func DeriveN(master int64, label string, n int) *Stream {
	return New(ChildSeed(master, label, n))
}

// ChildSeed is the seed DeriveN's child stream starts from — exported for
// components that hand a whole engine (not just a stream) a derived
// identity, e.g. the multi-engine scheduler seeding each replica's run.
// Distinct (label, n) pairs yield independent, stable seeds; deriving never
// consumes numbers from any stream.
func ChildSeed(master int64, label string, n int) int64 {
	h := fnv.New64a()
	var buf [8]byte
	for i := 0; i < 8; i++ {
		buf[i] = byte(master >> (8 * i))
	}
	h.Write(buf[:])
	h.Write([]byte(label))
	for i := 0; i < 8; i++ {
		buf[i] = byte(uint(n) >> (8 * i))
	}
	h.Write(buf[:])
	return int64(h.Sum64())
}

// Float64 returns a uniform sample in [0,1).
func (s *Stream) Float64() float64 { return s.r.Float64() }

// Intn returns a uniform sample in [0,n).
func (s *Stream) Intn(n int) int { return s.r.Intn(n) }

// Int63 returns a non-negative uniform 63-bit integer.
func (s *Stream) Int63() int64 { return s.r.Int63() }

// Uniform returns a uniform sample in [lo,hi).
func (s *Stream) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*s.r.Float64()
}

// Norm returns a standard gaussian sample.
func (s *Stream) Norm() float64 { return s.r.NormFloat64() }

// Gauss returns a gaussian sample with the given mean and standard deviation.
func (s *Stream) Gauss(mean, sigma float64) float64 {
	return mean + sigma*s.r.NormFloat64()
}

// Bool returns true with probability p.
func (s *Stream) Bool(p float64) bool { return s.r.Float64() < p }

// Perm returns a random permutation of [0,n).
func (s *Stream) Perm(n int) []int { return s.r.Perm(n) }

// Shuffle permutes the n elements using the provided swap function.
func (s *Stream) Shuffle(n int, swap func(i, j int)) { s.r.Shuffle(n, swap) }

// LatinHypercube returns n samples in [0,1)^dim arranged as a Latin
// hypercube: in every dimension the n samples occupy the n equal strata
// exactly once. Used by the yield estimator for low-variance Monte Carlo.
func (s *Stream) LatinHypercube(n, dim int) [][]float64 {
	if n <= 0 || dim <= 0 {
		return nil
	}
	out := make([][]float64, n)
	flat := make([]float64, n*dim)
	for i := range out {
		out[i], flat = flat[:dim], flat[dim:]
	}
	for d := 0; d < dim; d++ {
		perm := s.r.Perm(n)
		for i := 0; i < n; i++ {
			out[i][d] = (float64(perm[i]) + s.r.Float64()) / float64(n)
		}
	}
	return out
}

// LatinHypercubeGauss maps a Latin hypercube through the inverse normal CDF,
// yielding stratified standard-gaussian samples.
func (s *Stream) LatinHypercubeGauss(n, dim int) [][]float64 {
	cube := s.LatinHypercube(n, dim)
	for _, row := range cube {
		for d, u := range row {
			row[d] = InvNormCDF(u)
		}
	}
	return cube
}

// InvNormCDF is the inverse standard normal CDF (Acklam's rational
// approximation, |relative error| < 1.15e-9 over the open unit interval).
func InvNormCDF(p float64) float64 {
	if p <= 0 {
		return math.Inf(-1)
	}
	if p >= 1 {
		return math.Inf(1)
	}
	// Coefficients for the central and tail rational approximations.
	a := [6]float64{-3.969683028665376e+01, 2.209460984245205e+02,
		-2.759285104469687e+02, 1.383577518672690e+02,
		-3.066479806614716e+01, 2.506628277459239e+00}
	b := [5]float64{-5.447609879822406e+01, 1.615858368580409e+02,
		-1.556989798598866e+02, 6.680131188771972e+01,
		-1.328068155288572e+01}
	c := [6]float64{-7.784894002430293e-03, -3.223964580411365e-01,
		-2.400758277161838e+00, -2.549732539343734e+00,
		4.374664141464968e+00, 2.938163982698783e+00}
	d := [4]float64{7.784695709041462e-03, 3.224671290700398e-01,
		2.445134137142996e+00, 3.754408661907416e+00}
	const plow = 0.02425
	switch {
	case p < plow:
		q := math.Sqrt(-2 * math.Log(p))
		return (((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	case p > 1-plow:
		q := math.Sqrt(-2 * math.Log(1-p))
		return -(((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	default:
		q := p - 0.5
		r := q * q
		return (((((a[0]*r+a[1])*r+a[2])*r+a[3])*r+a[4])*r + a[5]) * q /
			(((((b[0]*r+b[1])*r+b[2])*r+b[3])*r+b[4])*r + 1)
	}
}

// NormCDF is the standard normal CDF.
func NormCDF(x float64) float64 {
	return 0.5 * math.Erfc(-x/math.Sqrt2)
}
