package randgen_test

import (
	"math"
	"testing"

	"github.com/imgrn/imgrn/internal/randgen"
	"github.com/imgrn/imgrn/internal/stats"
	"github.com/imgrn/imgrn/internal/vecmath"
)

// refRand is a frozen copy of the original generator: xoshiro256** seeded
// by SplitMix64, a 32-bit-limb 128-bit multiply for Lemire's bounded draw,
// and one Intn call per Fisher–Yates swap. It is the oracle the optimized
// generator must match draw for draw: every Monte Carlo estimate, pivot
// embedding and golden answer in the repository depends on this stream.
type refRand struct {
	s [4]uint64
	// rejections counts the extra draws of Lemire's rejection loop, so the
	// tests can assert that the loop really ran.
	rejections int
}

func newRef(seed uint64) *refRand {
	var r refRand
	sm := seed
	for i := range r.s {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		r.s[i] = z ^ (z >> 31)
	}
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
	return &r
}

func refRotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

func (r *refRand) Uint64() uint64 {
	result := refRotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = refRotl(r.s[3], 45)
	return result
}

func refMul64(x, y uint64) (hi, lo uint64) {
	const mask32 = 1<<32 - 1
	x0, x1 := x&mask32, x>>32
	y0, y1 := y&mask32, y>>32
	w0 := x0 * y0
	t := x1*y0 + w0>>32
	w1 := t & mask32
	w2 := t >> 32
	w1 += x0 * y1
	hi = x1*y1 + w2 + w1>>32
	lo = x * y
	return
}

func (r *refRand) Intn(n int) int {
	un := uint64(n)
	x := r.Uint64()
	hi, lo := refMul64(x, un)
	if lo < un {
		thresh := (-un) % un
		for lo < thresh {
			r.rejections++
			x = r.Uint64()
			hi, lo = refMul64(x, un)
		}
	}
	return int(hi)
}

func (r *refRand) Shuffle(x []float64) {
	for i := len(x) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		x[i], x[j] = x[j], x[i]
	}
}

func (r *refRand) ShuffleInts(x []int) {
	for i := len(x) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		x[i], x[j] = x[j], x[i]
	}
}

func (r *refRand) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.ShuffleInts(p)
	return p
}

func (r *refRand) PermuteInto(dst, src []float64) {
	copy(dst, src)
	r.Shuffle(dst)
}

// refSeeds are the seeds of the stream tests: the first thousand integers
// and a spread of large values.
func refSeeds() []uint64 {
	seeds := make([]uint64, 0, 1100)
	for s := uint64(0); s < 1000; s++ {
		seeds = append(seeds, s)
	}
	for s := uint64(1); s <= 100; s++ {
		seeds = append(seeds, s*0x9e3779b97f4a7c15, ^s)
	}
	return seeds
}

const maxRefLen = 64

func sameFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func sameInts(a, b []int) bool {
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

// sameNext asserts the two generators left off in the same state, by
// comparing their next outputs.
func sameNext(t *testing.T, what string, seed uint64, l int, got *randgen.Rand, want *refRand) {
	t.Helper()
	if g, w := got.Uint64(), want.Uint64(); g != w {
		t.Fatalf("%s seed=%d l=%d: next Uint64 %#x, reference %#x (final state differs)", what, seed, l, g, w)
	}
}

func TestReferenceUint64(t *testing.T) {
	for _, seed := range refSeeds() {
		got, want := randgen.New(seed), newRef(seed)
		for i := 0; i < 64; i++ {
			if g, w := got.Uint64(), want.Uint64(); g != w {
				t.Fatalf("seed=%d draw %d: %#x, reference %#x", seed, i, g, w)
			}
		}
		// Split derives a child from the parent's next draw.
		child, refChild := got.Split(), newRef(want.Uint64()^0xd1b54a32d192ed03)
		sameNext(t, "Split", seed, 0, child, refChild)
		sameNext(t, "Split parent", seed, 0, got, want)
	}
}

func TestReferenceShuffles(t *testing.T) {
	src := make([]float64, maxRefLen)
	for i := range src {
		src[i] = float64(i) + 0.5
	}
	for _, seed := range refSeeds() {
		got, want := randgen.New(seed), newRef(seed)
		for l := 0; l <= maxRefLen; l++ {
			gf := append([]float64(nil), src[:l]...)
			wf := append([]float64(nil), src[:l]...)
			got.Shuffle(gf)
			want.Shuffle(wf)
			if !sameFloats(gf, wf) {
				t.Fatalf("Shuffle seed=%d l=%d: %v, reference %v", seed, l, gf, wf)
			}

			gi, wi := make([]int, l), make([]int, l)
			for i := range gi {
				gi[i], wi[i] = 3*i+1, 3*i+1
			}
			got.ShuffleInts(gi)
			want.ShuffleInts(wi)
			if !sameInts(gi, wi) {
				t.Fatalf("ShuffleInts seed=%d l=%d: %v, reference %v", seed, l, gi, wi)
			}

			gd, wd := make([]float64, l), make([]float64, l)
			got.PermuteInto(gd, src[:l])
			want.PermuteInto(wd, src[:l])
			if !sameFloats(gd, wd) {
				t.Fatalf("PermuteInto seed=%d l=%d: %v, reference %v", seed, l, gd, wd)
			}

			if gp, wp := got.Perm(l), want.Perm(l); !sameInts(gp, wp) {
				t.Fatalf("Perm seed=%d l=%d: %v, reference %v", seed, l, gp, wp)
			}
		}
		sameNext(t, "shuffles", seed, maxRefLen, got, want)
	}
}

func TestReferenceIntn(t *testing.T) {
	bounds := []uint64{1, 3, 7, 10, 1000}
	for k := 1; k < 63; k++ {
		bounds = append(bounds, 1<<k)
	}
	// Near 2^63 the rejection threshold 2^64 mod n is a large share of the
	// range (up to a third of it just above 2^64/3), so Lemire's loop
	// really runs.
	rejecting := []uint64{
		0x5555555555555556, 0x6000000000000000, 1<<62 + 1, 3<<61 + 12345,
		1<<63 - 1<<60, 1<<63 - 2, 1<<63 - 1,
	}
	bounds = append(bounds, rejecting...)
	rejections := 0
	for _, seed := range refSeeds()[:1000] {
		got, want := randgen.New(seed), newRef(seed)
		for _, n := range bounds {
			for i := 0; i < 4; i++ {
				if g, w := got.Intn(int(n)), want.Intn(int(n)); g != w {
					t.Fatalf("Intn(%#x) seed=%d draw %d: %d, reference %d", n, seed, i, g, w)
				}
			}
		}
		sameNext(t, "Intn", seed, 0, got, want)
		rejections += want.rejections
	}
	if rejections == 0 {
		t.Fatal("Lemire's rejection loop never ran; the near-2^63 bounds test nothing")
	}
}

// TestReferenceShuffleRejection drives the shuffles' own rejection branch.
// At vector lengths the draw lo = v·n mod 2⁶⁴ almost never falls under
// 2⁶⁴ mod n, so seeded streams never reach it; a state with s[1] = 0
// makes the next output 0, which every bound n that is not a power of two
// rejects, at the first swap (n = l).
func TestReferenceShuffleRejection(t *testing.T) {
	src := make([]float64, maxRefLen)
	for i := range src {
		src[i] = float64(i) + 0.5
	}
	seeds := newRef(99)
	rejections := 0
	for trial := 0; trial < 50; trial++ {
		state := [4]uint64{seeds.Uint64(), 0, seeds.Uint64(), seeds.Uint64()}
		for l := 2; l <= maxRefLen; l++ {
			got, want := randgen.New(0), newRef(0)
			got.SetState(state)
			want.s = state
			gd, wd := make([]float64, l), make([]float64, l)
			got.PermuteInto(gd, src[:l])
			want.PermuteInto(wd, src[:l])
			if !sameFloats(gd, wd) {
				t.Fatalf("PermuteInto trial=%d l=%d: %v, reference %v", trial, l, gd, wd)
			}
			sameNext(t, "PermuteInto after rejection", uint64(trial), l, got, want)

			got.SetState(state)
			want.s = state
			gi, wi := make([]int, l), make([]int, l)
			for i := range gi {
				gi[i], wi[i] = i, i
			}
			got.ShuffleInts(gi)
			want.ShuffleInts(wi)
			if !sameInts(gi, wi) {
				t.Fatalf("ShuffleInts trial=%d l=%d: %v, reference %v", trial, l, gi, wi)
			}
			sameNext(t, "ShuffleInts after rejection", uint64(trial), l, got, want)
			rejections += want.rejections
		}
	}
	if rejections == 0 {
		t.Fatal("no shuffle hit the rejection branch")
	}
}

func TestPermuteIntoAllocs(t *testing.T) {
	r := randgen.New(1)
	src := make([]float64, 20)
	dst := make([]float64, 20)
	if a := testing.AllocsPerRun(100, func() { r.PermuteInto(dst, src) }); a != 0 {
		t.Fatalf("PermuteInto allocates %v times per call", a)
	}
}

// --- estimator pins: the stats estimators driven by the reference ---

func refEdgeProbability(r *refRand, xs, xt []float64, samples int) float64 {
	d := vecmath.SquaredEuclidean(xs, xt)
	perm := make([]float64, len(xt))
	hits := 0
	for i := 0; i < samples; i++ {
		r.PermuteInto(perm, xt)
		if vecmath.SquaredEuclidean(xs, perm) > d {
			hits++
		}
	}
	return float64(hits) / float64(samples)
}

func refAbsEdgeProbability(r *refRand, xs, xt []float64, samples int) float64 {
	c := math.Abs(vecmath.SquaredEuclidean(xs, xt) - 2)
	perm := make([]float64, len(xt))
	hits := 0
	for i := 0; i < samples; i++ {
		r.PermuteInto(perm, xt)
		if math.Abs(vecmath.SquaredEuclidean(xs, perm)-2) < c {
			hits++
		}
	}
	return float64(hits) / float64(samples)
}

func refExpectedPermDistance(r *refRand, fixed, permuted []float64, samples int) float64 {
	perm := make([]float64, len(permuted))
	var sum float64
	for i := 0; i < samples; i++ {
		r.PermuteInto(perm, permuted)
		sum += vecmath.Euclidean(fixed, perm)
	}
	return sum / float64(samples)
}

// standardizedPair returns two correlated standardized vectors of length l.
func standardizedPair(l int, seed uint64) (xs, xt []float64) {
	rng := randgen.New(seed)
	xs, xt = make([]float64, l), make([]float64, l)
	for i := range xs {
		xs[i] = rng.Gaussian(0, 1)
		xt[i] = 0.5*xs[i] + rng.Gaussian(0, 1)
	}
	vecmath.Standardize(xs)
	vecmath.Standardize(xt)
	return xs, xt
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestEstimatorsMatchReference runs every permutation-drawing estimator
// entry point in sequence on one estimator and the same sequence on the
// reference stream: each estimate must agree bit for bit, which also pins
// that every call leaves the stream where the reference leaves it.
func TestEstimatorsMatchReference(t *testing.T) {
	const samples = 192
	for seed := uint64(0); seed < 40; seed++ {
		for _, l := range []int{2, 10, 15, 20, 50} {
			xs, xt := standardizedPair(l, 1000+seed)
			est, ref := stats.NewEstimator(seed), newRef(seed)

			if g, w := est.EdgeProbability(xs, xt, samples), refEdgeProbability(ref, xs, xt, samples); !sameBits(g, w) {
				t.Fatalf("EdgeProbability seed=%d l=%d: %v, reference %v", seed, l, g, w)
			}
			if g, w := est.AbsEdgeProbability(xs, xt, samples), refAbsEdgeProbability(ref, xs, xt, samples); !sameBits(g, w) {
				t.Fatalf("AbsEdgeProbability seed=%d l=%d: %v, reference %v", seed, l, g, w)
			}
			if g, w := est.ExpectedPermDistance(xs, xt, samples), refExpectedPermDistance(ref, xs, xt, samples); !sameBits(g, w) {
				t.Fatalf("ExpectedPermDistance seed=%d l=%d: %v, reference %v", seed, l, g, w)
			}

			var b stats.PermBatch
			b.Fill(est, xt, samples)
			row := make([]float64, l)
			for r := 0; r < samples; r++ {
				ref.PermuteInto(row, xt)
				if !sameFloats(b.Row(r), row) {
					t.Fatalf("PermBatch seed=%d l=%d row %d: %v, reference %v", seed, l, r, b.Row(r), row)
				}
			}

			// The call after Fill must continue from the reference's state.
			if g, w := est.EdgeProbability(xt, xs, samples), refEdgeProbability(ref, xt, xs, samples); !sameBits(g, w) {
				t.Fatalf("EdgeProbability after Fill seed=%d l=%d: %v, reference %v", seed, l, g, w)
			}
		}
	}
}
