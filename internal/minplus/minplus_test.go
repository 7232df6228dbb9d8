package minplus

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestSatAdd(t *testing.T) {
	tests := []struct {
		name string
		a, b int64
		want int64
	}{
		{"finite", 3, 4, 7},
		{"zero", 0, 0, 0},
		{"left inf", Inf, 4, Inf},
		{"right inf", 4, Inf, Inf},
		{"both inf", Inf, Inf, Inf},
		{"near overflow", Inf - 1, Inf - 1, Inf},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			got := SatAdd(tc.a, tc.b)
			if IsInf(tc.want) {
				if !IsInf(got) {
					t.Fatalf("SatAdd(%d,%d) = %d, want Inf", tc.a, tc.b, got)
				}
				return
			}
			if got != tc.want {
				t.Fatalf("SatAdd(%d,%d) = %d, want %d", tc.a, tc.b, got, tc.want)
			}
		})
	}
}

func TestSatAddNeverOverflows(t *testing.T) {
	f := func(a, b int64) bool {
		if a < 0 {
			a = -a
		}
		if b < 0 {
			b = -b
		}
		s := SatAdd(a, b)
		return s >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEntryLess(t *testing.T) {
	tests := []struct {
		name string
		a, b Entry
		want bool
	}{
		{"smaller weight", Entry{Col: 5, W: 1}, Entry{Col: 1, W: 2}, true},
		{"larger weight", Entry{Col: 1, W: 3}, Entry{Col: 5, W: 2}, false},
		{"tie smaller col", Entry{Col: 1, W: 2}, Entry{Col: 5, W: 2}, true},
		{"tie larger col", Entry{Col: 5, W: 2}, Entry{Col: 1, W: 2}, false},
		{"equal", Entry{Col: 1, W: 2}, Entry{Col: 1, W: 2}, false},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.a.Less(tc.b); got != tc.want {
				t.Fatalf("%v.Less(%v) = %v, want %v", tc.a, tc.b, got, tc.want)
			}
		})
	}
}

func TestIdentityIsMulIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 10; trial++ {
		n := 2 + rng.Intn(8)
		a := randomDense(n, rng)
		id := Identity(n)
		if got := a.Mul(id); !got.Equal(a) {
			t.Fatalf("trial %d: A ⋆ I != A", trial)
		}
		if got := id.Mul(a); !got.Equal(a) {
			t.Fatalf("trial %d: I ⋆ A != A", trial)
		}
	}
}

func TestMulAssociative(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 10; trial++ {
		n := 2 + rng.Intn(6)
		a, b, c := randomDense(n, rng), randomDense(n, rng), randomDense(n, rng)
		left := a.Mul(b).Mul(c)
		right := a.Mul(b.Mul(c))
		if !left.Equal(right) {
			t.Fatalf("trial %d: (AB)C != A(BC)", trial)
		}
	}
}

func TestMulHandDistanceProduct(t *testing.T) {
	// 3-node path 0-1-2 with weights 2 and 3; A² must expose the 2-hop path.
	a := NewDense(3)
	a.SetDiagZero()
	a.Set(0, 1, 2)
	a.Set(1, 0, 2)
	a.Set(1, 2, 3)
	a.Set(2, 1, 3)
	sq := a.Mul(a)
	if got := sq.At(0, 2); got != 5 {
		t.Fatalf("A²[0,2] = %d, want 5", got)
	}
	if got := sq.At(0, 1); got != 2 {
		t.Fatalf("A²[0,1] = %d, want 2", got)
	}
	if got := sq.At(0, 0); got != 0 {
		t.Fatalf("A²[0,0] = %d, want 0", got)
	}
}

func TestPowerMatchesRepeatedMul(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 5; trial++ {
		n := 2 + rng.Intn(6)
		a := randomDense(n, rng)
		for h := 1; h <= 5; h++ {
			want := a.Clone()
			for i := 1; i < h; i++ {
				want = want.Mul(a)
			}
			got, _ := a.PowerCtx(nil, h)
			if !got.Equal(want) {
				t.Fatalf("trial %d: A^%d mismatch", trial, h)
			}
		}
	}
}

func TestPowerFixpointReachesAPSP(t *testing.T) {
	// Path graph: fixpoint of squaring is all-pairs distances.
	n := 8
	a := NewDense(n)
	a.SetDiagZero()
	for i := 0; i+1 < n; i++ {
		a.Set(i, i+1, 1)
		a.Set(i+1, i, 1)
	}
	fix, _, _ := a.PowerFixpointCtx(nil, 4*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			want := int64(abs(i - j))
			if got := fix.At(i, j); got != want {
				t.Fatalf("fix[%d,%d] = %d, want %d", i, j, got, want)
			}
		}
	}
}

func TestKSmallestInRow(t *testing.T) {
	d := NewDense(4)
	d.Set(0, 0, 0)
	d.Set(0, 1, 5)
	d.Set(0, 2, 5)
	d.Set(0, 3, 1)
	got := d.KSmallestInRow(0, 3)
	want := []Entry{{Col: 0, W: 0}, {Col: 3, W: 1}, {Col: 1, W: 5}}
	if len(got) != len(want) {
		t.Fatalf("got %d entries, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("entry %d: got %v, want %v", i, got[i], want[i])
		}
	}
	// Row with fewer finite entries than k.
	if got := d.KSmallestInRow(1, 3); len(got) != 0 {
		t.Fatalf("empty row returned %v", got)
	}
	// Degenerate k.
	if got := d.KSmallestInRow(0, 0); len(got) != 0 {
		t.Fatalf("k=0 returned %v", got)
	}
}

// TestKSmallestInRowMatchesFullSort pins the heap-selection rewrite against
// the straightforward sort-everything reference on random rows, including
// the (value, column) tie order.
func TestKSmallestInRowMatchesFullSort(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(20)
		d := randomDense(n, rng)
		i := rng.Intn(n)
		// Inject duplicate values so the Col tiebreak is exercised.
		for j := 0; j < n; j += 3 {
			d.Set(i, j, int64(rng.Intn(3)))
		}
		row := d.Row(i)
		var ref []Entry
		for j, v := range row {
			if !IsInf(v) {
				ref = append(ref, Entry{Col: j, W: v})
			}
		}
		sort.Slice(ref, func(a, b int) bool { return ref[a].Less(ref[b]) })
		for _, k := range []int{1, 2, n / 2, n - 1, n, n + 5} {
			if k < 1 {
				continue
			}
			want := ref
			if len(want) > k {
				want = want[:k]
			}
			got := d.KSmallestInRow(i, k)
			if len(got) != len(want) {
				t.Fatalf("trial %d k=%d: %d entries, want %d", trial, k, len(got), len(want))
			}
			for x := range want {
				if got[x] != want[x] {
					t.Fatalf("trial %d k=%d entry %d: got %v, want %v", trial, k, x, got[x], want[x])
				}
			}
		}
	}
}

// TestKSmallestInRowSingleAllocation pins the perf contract: one allocation
// of min(k, n) entries per call, regardless of row width.
func TestKSmallestInRowSingleAllocation(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	d := randomDense(256, rng)
	allocs := testing.AllocsPerRun(20, func() {
		d.KSmallestInRow(3, 8)
	})
	if allocs > 1 {
		t.Fatalf("KSmallestInRow made %.0f allocations, want ≤ 1", allocs)
	}
}

func TestFilterAndSparseMulMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 10; trial++ {
		n := 3 + rng.Intn(8)
		a, b := randomDense(n, rng), randomDense(n, rng)
		sa, sb := FilterDense(a, n), FilterDense(b, n) // no actual filtering
		got := MulSparse(sa, sb).ToDense()
		want := a.Mul(b)
		if !got.Equal(want) {
			t.Fatalf("trial %d: sparse product != dense product", trial)
		}
	}
}

func TestFilterDenseKeepsKSmallest(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n := 10
	d := randomDense(n, rng)
	for k := 1; k <= n; k++ {
		s := FilterDense(d, k)
		for i := 0; i < n; i++ {
			want := d.KSmallestInRow(i, k)
			row := s.Row(i)
			if len(row) != len(want) {
				t.Fatalf("k=%d row %d: %d entries, want %d", k, i, len(row), len(want))
			}
			wantSet := make(map[Entry]bool, len(want))
			for _, e := range want {
				wantSet[e] = true
			}
			for _, e := range row {
				if !wantSet[e] {
					t.Fatalf("k=%d row %d: unexpected entry %v", k, i, e)
				}
			}
		}
	}
}

func TestSetRowMergesDuplicates(t *testing.T) {
	s := NewRowSparse(4)
	s.SetRow(0, []Entry{{Col: 1, W: 5}, {Col: 1, W: 3}, {Col: 2, W: Inf}, {Col: 3, W: 7}})
	row := s.Row(0)
	want := []Entry{{Col: 1, W: 3}, {Col: 3, W: 7}}
	if len(row) != len(want) {
		t.Fatalf("row = %v, want %v", row, want)
	}
	for i := range want {
		if row[i] != want[i] {
			t.Fatalf("row = %v, want %v", row, want)
		}
	}
}

func TestDensity(t *testing.T) {
	s := NewRowSparse(4)
	s.SetRow(0, []Entry{{Col: 1, W: 1}, {Col: 2, W: 2}})
	s.SetRow(1, []Entry{{Col: 0, W: 1}})
	if got := s.NNZ(); got != 3 {
		t.Fatalf("NNZ = %d, want 3", got)
	}
	if got := s.Density(); got != 0.75 {
		t.Fatalf("Density = %v, want 0.75", got)
	}
}

func TestClampAndSymmetrize(t *testing.T) {
	d := NewDense(3)
	d.SetDiagZero()
	d.Set(0, 1, 10)
	d.Set(1, 0, 4)
	d.Set(0, 2, Inf)
	d.Symmetrize()
	if d.At(0, 1) != 4 || d.At(1, 0) != 4 {
		t.Fatalf("Symmetrize failed: %d %d", d.At(0, 1), d.At(1, 0))
	}
	d.Clamp(3)
	if d.At(0, 1) != 3 {
		t.Fatalf("Clamp failed: %d", d.At(0, 1))
	}
	if d.At(0, 2) != 3 {
		t.Fatalf("Clamp should cap Inf at cap: %d", d.At(0, 2))
	}
	if d.At(0, 0) != 0 {
		t.Fatalf("Clamp must not touch values below cap: %d", d.At(0, 0))
	}
}

func TestCDKL21Rounds(t *testing.T) {
	tests := []struct {
		name              string
		rhoS, rhoT, rhoST float64
		n                 int
		wantMax           int64
	}{
		{"sparse inputs constant rounds", 16, 64, 4, 4096, 2},
		{"dense worst case", 4096, 4096, 4096, 4096, 17},
		{"tiny", 1, 1, 1, 4, 2},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			got := CDKL21Rounds(tc.rhoS, tc.rhoT, tc.rhoST, tc.n)
			if got < 1 || got > tc.wantMax {
				t.Fatalf("rounds = %d, want in [1,%d]", got, tc.wantMax)
			}
		})
	}
}

func TestDenseMatMulRounds(t *testing.T) {
	if got := DenseMatMulRounds(1000); got != 10 {
		t.Fatalf("DenseMatMulRounds(1000) = %d, want 10", got)
	}
	if got := DenseMatMulRounds(0); got != 1 {
		t.Fatalf("DenseMatMulRounds(0) = %d, want 1", got)
	}
}

func TestScale(t *testing.T) {
	d := NewDense(2)
	d.Set(0, 0, 3)
	d.Set(0, 1, Inf)
	d.Scale(4)
	if d.At(0, 0) != 12 {
		t.Fatalf("Scale: got %d, want 12", d.At(0, 0))
	}
	if !IsInf(d.At(0, 1)) {
		t.Fatalf("Scale must keep Inf infinite")
	}
}

func randomDense(n int, rng *rand.Rand) *Dense {
	d := NewDense(n)
	d.SetDiagZero()
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			switch rng.Intn(3) {
			case 0: // leave Inf
			default:
				d.Set(i, j, int64(1+rng.Intn(50)))
			}
		}
	}
	return d
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func TestFromRows(t *testing.T) {
	d := FromRows([][]int64{{0, 5}, {7, 0}})
	if d.At(0, 1) != 5 || d.At(1, 0) != 7 {
		t.Fatalf("FromRows mismatch: %d %d", d.At(0, 1), d.At(1, 0))
	}
	defer func() {
		if recover() == nil {
			t.Fatal("ragged rows should panic")
		}
	}()
	FromRows([][]int64{{0, 5}, {7}})
}

func TestMaxFinite(t *testing.T) {
	d := NewDense(3)
	if got := d.MaxFinite(); got != 0 {
		t.Fatalf("all-Inf MaxFinite = %d, want 0", got)
	}
	d.Set(0, 1, 42)
	d.Set(1, 2, 7)
	if got := d.MaxFinite(); got != 42 {
		t.Fatalf("MaxFinite = %d, want 42", got)
	}
}

func TestNewRowSparseValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("n=0 should panic")
		}
	}()
	NewRowSparse(0)
}

func TestRowSparseN(t *testing.T) {
	if got := NewRowSparse(5).N(); got != 5 {
		t.Fatalf("N = %d, want 5", got)
	}
}

func TestCDKL21RoundsDegenerate(t *testing.T) {
	if got := CDKL21Rounds(1, 1, 1, 0); got != 1 {
		t.Fatalf("n=0: %d, want 1", got)
	}
	if got := CDKL21Rounds(-1, 1, 1, 8); got != 1 {
		t.Fatalf("negative density: %d, want 1", got)
	}
}

func TestMulDimensionMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("dimension mismatch should panic")
		}
	}()
	NewDense(2).Mul(NewDense(3))
}

func TestPowerInvalidExponentPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("h=0 should panic")
		}
	}()
	NewDense(2).PowerCtx(nil, 0)
}
