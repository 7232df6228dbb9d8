package minplus

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"github.com/congestedclique/cliqueapsp/internal/sched"
)

// identicalEntries is the byte-identical comparison the kernel-equivalence
// property needs: unlike Equal it does NOT treat distinct ≥ Inf encodings
// as interchangeable, so a kernel that merely preserves reachability but
// drifts on saturated values fails here.
func identicalEntries(t *testing.T, want, got *Dense) {
	t.Helper()
	if want.N() != got.N() {
		t.Fatalf("dimension %d vs %d", want.N(), got.N())
	}
	for i := 0; i < want.N(); i++ {
		for j := 0; j < want.N(); j++ {
			if want.At(i, j) != got.At(i, j) {
				t.Fatalf("entry (%d,%d): naive %d, tiled %d", i, j, want.At(i, j), got.At(i, j))
			}
		}
	}
}

// TestMulTiledMatchesNaive is the kernel-equivalence property: the tiled,
// pooled Mul must be byte-identical to the retained naive reference across
// sizes straddling every tile boundary (n < one tile, n not divisible by
// mulTileK/mulTileJ/mulRowChunk, n above a j-tile).
func TestMulTiledMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{1, 2, 3, 5, 15, 16, 17, 63, 64, 65, 100, 129, 257} {
		a := randomDense(n, rng)
		b := randomDense(n, rng)
		identicalEntries(t, a.MulNaive(b), a.Mul(b))

		// And under an explicit group with a serial cap: the tiled loop
		// itself, not the fan-out, must carry the equivalence.
		got := NewDense(n)
		if err := a.MulTo(sched.Shared().Group(context.Background(), 1), got, b); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		identicalEntries(t, a.MulNaive(b), got)
	}
}

// TestPowerTiledMatchesNaive pins Power and PowerFixpoint (the ping-pong
// users of the tiled kernel) to powers computed purely with the naive
// reference.
func TestPowerTiledMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{3, 17, 33, 65} {
		a := randomDense(n, rng)
		naive := a.Clone()
		for _, h := range []int{1, 2, 3, 5, 8} {
			got, _ := a.PowerCtx(nil, h)
			identicalEntries(t, naivePower(a, h), got)
		}

		want := naive.Clone()
		want.SetDiagZero()
		wantSquarings := 0
		for exp := 1; exp < 2*n; exp *= 2 {
			next := want.MulNaive(want)
			wantSquarings++
			if next.Equal(want) {
				want = next
				break
			}
			want = next
		}
		got, squarings, _ := a.PowerFixpointCtx(nil, 2*n)
		if squarings != wantSquarings {
			t.Fatalf("n=%d: %d squarings, naive fixpoint took %d", n, squarings, wantSquarings)
		}
		identicalEntries(t, want, got)
	}
}

// naivePower is binary exponentiation over MulNaive only.
func naivePower(d *Dense, h int) *Dense {
	result := d.Clone()
	h--
	base := d.Clone()
	for h > 0 {
		if h&1 == 1 {
			result = result.MulNaive(base)
		}
		h >>= 1
		if h > 0 {
			base = base.MulNaive(base)
		}
	}
	return result
}

// TestMulToCancellation is the mid-kernel cancellation satellite: a context
// cancelled while a large product is in flight must surface ctx.Err()
// promptly — within tile granularity, not at the end of the product (and
// certainly not at the next pipeline phase boundary).
func TestMulToCancellation(t *testing.T) {
	const n = 1024
	rng := rand.New(rand.NewSource(3))
	a := randomDense(n, rng)
	dst := NewDense(n)

	// Pre-cancelled context: no tile runs.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := a.MulTo(sched.Shared().Group(ctx, 0), dst, a); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled MulTo returned %v", err)
	}

	// Mid-flight cancel on a serial group (the slowest case: one worker,
	// ~seconds of product left). The kernel polls between tiles, so the
	// return must come within milliseconds of the cancel, not after the
	// remaining gigaflop of work.
	ctx, cancel = context.WithCancel(context.Background())
	g := sched.Shared().Group(ctx, 1)
	done := make(chan error, 1)
	start := time.Now()
	go func() { done <- a.MulTo(g, dst, a) }()
	time.Sleep(30 * time.Millisecond)
	cancelled := time.Now()
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("MulTo returned %v, want context.Canceled", err)
		}
		if took := time.Since(cancelled); took > time.Second {
			t.Fatalf("MulTo took %v to observe cancellation", took)
		}
		if time.Since(start) > 5*time.Second {
			t.Fatalf("MulTo appears to have run to completion before returning")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("MulTo never returned after cancel")
	}

	// The fixpoint propagates the abort.
	ctx, cancel = context.WithCancel(context.Background())
	cancel()
	if _, _, err := a.PowerFixpointCtx(sched.Shared().Group(ctx, 0), 2*n); !errors.Is(err, context.Canceled) {
		t.Fatalf("PowerFixpointCtx returned %v", err)
	}
	if _, err := a.PowerCtx(sched.Shared().Group(ctx, 0), 4); !errors.Is(err, context.Canceled) {
		t.Fatalf("PowerCtx returned %v", err)
	}
}

// TestMulToAllocs pins the parallelRows fix: the kernel's work distribution
// must not allocate proportionally to n (the old path built an n-capacity
// channel and filled it with every row index per call). With a preallocated
// destination, a serial product is a single closure allocation and the
// parallel path stays at O(workers).
func TestMulToAllocs(t *testing.T) {
	const n = 256
	rng := rand.New(rand.NewSource(5))
	a := randomDense(n, rng)
	dst := NewDense(n)

	serial := sched.Shared().Group(context.Background(), 1)
	allocs := testing.AllocsPerRun(5, func() {
		if err := a.MulTo(serial, dst, a); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Errorf("serial MulTo allocated %.1f objects/run, want ≤ 2", allocs)
	}

	// The parallel path allocates a few objects per helper (closure,
	// waitgroup bookkeeping) — O(workers), never O(n). n=256 has 16 row
	// chunks, so at most 15 helpers regardless of machine width.
	wide := sched.Shared().Group(context.Background(), 0)
	allocs = testing.AllocsPerRun(5, func() {
		if err := a.MulTo(wide, dst, a); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 48 {
		t.Errorf("parallel MulTo allocated %.1f objects/run, want ≤ 48 (O(workers), not O(n))", allocs)
	}
}

func TestMulToValidation(t *testing.T) {
	a := NewDense(4)
	expectPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	expectPanic("aliased dst", func() { _ = a.MulTo(nil, a, NewDense(4)) })
	expectPanic("dimension mismatch", func() { _ = a.MulTo(nil, NewDense(4), NewDense(5)) })
	expectPanic("bad dst dimension", func() { _ = a.MulTo(nil, NewDense(5), NewDense(4)) })
	expectPanic("naive dimension mismatch", func() { _ = a.MulNaive(NewDense(5)) })
}
