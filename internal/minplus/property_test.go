package minplus

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func denseFromSeed(seed int64, maxN int) *Dense {
	rng := rand.New(rand.NewSource(seed))
	n := 2 + rng.Intn(maxN-1)
	return randomDense(n, rng)
}

func TestPropertyMulMonotone(t *testing.T) {
	// Lowering one entry of A can only lower (or keep) entries of A⋆B.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := denseFromSeed(seed, 10)
		b := denseFromSeed(seed^0x77, 10)
		if a.N() != b.N() {
			nMin := a.N()
			if b.N() < nMin {
				nMin = b.N()
			}
			a2, b2 := NewDense(nMin), NewDense(nMin)
			for i := 0; i < nMin; i++ {
				for j := 0; j < nMin; j++ {
					a2.Set(i, j, a.At(i, j))
					b2.Set(i, j, b.At(i, j))
				}
			}
			a, b = a2, b2
		}
		before := a.Mul(b)
		i, j := rng.Intn(a.N()), rng.Intn(a.N())
		a.Set(i, j, 0)
		after := a.Mul(b)
		for r := 0; r < a.N(); r++ {
			for c := 0; c < a.N(); c++ {
				if after.At(r, c) > before.At(r, c) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyPowerEqualsHopLimitedPaths(t *testing.T) {
	// A^h (with zero diagonal) equals h-hop Bellman–Ford over the entries.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(8)
		a := randomDense(n, rng)
		a.SetDiagZero()
		h := 1 + rng.Intn(4)
		pow, _ := a.PowerCtx(nil, h)
		for src := 0; src < n; src++ {
			dist := make([]int64, n)
			next := make([]int64, n)
			for i := range dist {
				dist[i] = Inf
			}
			dist[src] = 0
			for step := 0; step < h; step++ {
				copy(next, dist)
				for u := 0; u < n; u++ {
					if IsInf(dist[u]) {
						continue
					}
					for v := 0; v < n; v++ {
						if s := SatAdd(dist[u], a.At(u, v)); s < next[v] {
							next[v] = s
						}
					}
				}
				dist, next = next, dist
			}
			for v := 0; v < n; v++ {
				got, want := pow.At(src, v), dist[v]
				if IsInf(got) != IsInf(want) {
					return false
				}
				if !IsInf(got) && got != want {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyFilterSubsetOfRow(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(10)
		d := randomDense(n, rng)
		k := 1 + rng.Intn(n)
		s := FilterDense(d, k)
		for i := 0; i < n; i++ {
			if len(s.Row(i)) > k {
				return false
			}
			for _, e := range s.Row(i) {
				if d.At(i, e.Col) != e.W {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertySparseMulMatchesDense(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(9)
		a, b := randomDense(n, rng), randomDense(n, rng)
		return MulSparse(FilterDense(a, n), FilterDense(b, n)).ToDense().Equal(a.Mul(b))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertySymmetrizeIdempotentAndSymmetric(t *testing.T) {
	f := func(seed int64) bool {
		d := denseFromSeed(seed, 12)
		d.Symmetrize()
		once := d.Clone()
		d.Symmetrize()
		if !d.Equal(once) {
			return false
		}
		for i := 0; i < d.N(); i++ {
			for j := 0; j < d.N(); j++ {
				if d.At(i, j) != d.At(j, i) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
