package minplus

import (
	"math/rand"
	"testing"
)

func BenchmarkDenseMul(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	a := randomDense(128, rng)
	c := randomDense(128, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Mul(c)
	}
}

func BenchmarkSparseMulFiltered(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	a := FilterDense(randomDense(256, rng), 16)
	c := FilterDense(randomDense(256, rng), 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MulSparse(a, c)
	}
}

func BenchmarkPowerFixpoint(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	a := randomDense(96, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.PowerFixpointCtx(nil, 256)
	}
}

func BenchmarkFilterDense(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	a := randomDense(256, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		FilterDense(a, 16)
	}
}
