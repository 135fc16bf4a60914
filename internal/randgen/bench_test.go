package randgen

import (
	"strconv"
	"testing"
)

// benchLens are the vector lengths of the permutation benchmarks: the
// 10-20 sample range of the synthetic workloads.
var benchLens = []int{10, 20}

func BenchmarkShuffle(b *testing.B) {
	for _, l := range benchLens {
		b.Run("l="+strconv.Itoa(l), func(b *testing.B) {
			r := New(1)
			x := make([]float64, l)
			for i := range x {
				x[i] = float64(i)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.Shuffle(x)
			}
		})
	}
}

func BenchmarkPermuteInto(b *testing.B) {
	for _, l := range benchLens {
		b.Run("l="+strconv.Itoa(l), func(b *testing.B) {
			r := New(2)
			src := make([]float64, l)
			for i := range src {
				src[i] = float64(i)
			}
			dst := make([]float64, l)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.PermuteInto(dst, src)
			}
		})
	}
}
