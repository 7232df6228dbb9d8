package main

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	cliqueapsp "github.com/congestedclique/cliqueapsp"
)

func TestStreamsRepeatPerSeed(t *testing.T) {
	a := requestStream(7, tenant, nodes, 512)
	b := requestStream(7, tenant, nodes, 512)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed, different request streams")
	}
	if reflect.DeepEqual(a, requestStream(8, tenant, nodes, 512)) {
		t.Fatal("different seeds, same request stream")
	}
	g := genGraph(256, derive(7, "graph"))
	if !reflect.DeepEqual(graphJSON(g), graphJSON(genGraph(256, derive(7, "graph")))) {
		t.Fatal("same seed, different graphs")
	}
	da, db := deltaStream(g, 7, 24), deltaStream(g, 7, 24)
	if !reflect.DeepEqual(da, db) {
		t.Fatal("same seed, different delta streams")
	}
	if reflect.DeepEqual(da, deltaStream(g, 8, 24)) {
		t.Fatal("different seeds, same delta stream")
	}
}

func TestRequestStreamMix(t *testing.T) {
	const n = 1024
	counts := [numOps]int{}
	for _, r := range requestStream(3, tenant, n, 20000) {
		counts[r.kind]++
		want := 1
		if r.kind == opBatch {
			want = batchPairs
			if !bytes.HasPrefix(r.body, []byte(`{"pairs":[[`)) {
				t.Fatalf("batch body %.40s", r.body)
			}
		}
		if len(r.pairs) != want {
			t.Fatalf("%s with %d pairs", opNames[r.kind], len(r.pairs))
		}
		for _, p := range r.pairs {
			if p.u == p.v || p.u < 0 || p.u >= n || p.v < 0 || p.v >= n {
				t.Fatalf("bad pair %v", p)
			}
		}
		if !strings.HasPrefix(r.target, "/v1/graphs/"+tenant+"/"+opNames[r.kind]) {
			t.Fatalf("target %q for %s", r.target, opNames[r.kind])
		}
	}
	for k, want := range [numOps]float64{0.80, 0.15, 0.05} {
		if got := float64(counts[k]) / 20000; math.Abs(got-want) > 0.015 {
			t.Errorf("%s share %.3f, want %.2f", opNames[k], got, want)
		}
	}
}

func TestZipf(t *testing.T) {
	const n, draws = 1024, 400000
	rng := rand.New(rand.NewSource(1))
	z := newZipf(n, 1, rng)
	seen := make([]bool, n)
	for _, p := range z.perm {
		if seen[p] {
			t.Fatal("perm is not a permutation")
		}
		seen[p] = true
	}
	ranks := make([]int, n)
	for i := 0; i < draws; i++ {
		ranks[z.rank(rng)]++
	}
	h := 0.0
	for r := 1; r <= n; r++ {
		h += 1 / float64(r)
	}
	// P(rank r) = 1/((r+1)·H_n): check the head, where counts are large.
	for r := 0; r < 8; r++ {
		want := draws / (float64(r+1) * h)
		if got := float64(ranks[r]); math.Abs(got-want) > 5*math.Sqrt(want) {
			t.Errorf("rank %d drawn %v times, want about %.0f", r, got, want)
		}
	}
	// The tail is reached: a uniform sampler would put 1/4 of the draws in
	// the top quarter of ranks, Zipf(1) about ln(4)/H_n of them.
	top := 0
	for r := 0; r < n/4; r++ {
		top += ranks[r]
	}
	if share := float64(top) / draws; share < 0.75 || share > 0.90 {
		t.Errorf("top quarter of ranks drew %.3f of the draws", share)
	}
	if ranks[n-1] == 0 {
		t.Error("last rank never drawn")
	}
	// draw maps ranks through the permutation.
	rng2 := rand.New(rand.NewSource(9))
	rng3 := rand.New(rand.NewSource(9))
	if z.draw(rng2) != z.perm[z.rank(rng3)] {
		t.Error("draw does not map the rank through perm")
	}
}

func TestPercentileRefusesThinTails(t *testing.T) {
	xs := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(n - i) // reversed: percentile must sort
		}
		return out
	}
	if _, err := percentile(xs(99), 0.9); err == nil {
		t.Error("p90 of 99 samples accepted: 9 beyond it")
	}
	if v, err := percentile(xs(100), 0.9); err != nil || v != 90 {
		t.Errorf("p90 of 1..100 = %v, %v; want 90", v, err)
	}
	if _, err := percentile(xs(19), 0.5); err == nil {
		t.Error("p50 of 19 samples accepted: 9 beyond it")
	}
	if v, err := percentile(xs(21), 0.5); err != nil || v != 11 {
		t.Errorf("p50 of 1..21 = %v, %v; want 11", v, err)
	}
	if _, err := percentile(xs(999), 0.99); err == nil {
		t.Error("p99 of 999 samples accepted: 9 beyond it")
	}
	if _, err := percentile(xs(100), 1); err == nil {
		t.Error("p100 accepted")
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
	if m := trimmedMean([]float64{9, 1, 2, 100, 3, 4, 5, 6}); m != 4.5 {
		t.Errorf("trimmedMean = %v, want 4.5 (mean of 3..6)", m)
	}
	if m := trimmedMean([]float64{5, 1, 100}); m != 5 {
		t.Errorf("trimmedMean of three = %v, want the median 5", m)
	}
}

func TestServeGraphHopDepth(t *testing.T) {
	// A path of 20 edges needs all 20; a star needs 2.
	path, star := cliqueapsp.NewGraph(21), cliqueapsp.NewGraph(10)
	for i := 0; i < 20; i++ {
		path.AddEdge(i, i+1, 1)
	}
	for i := 1; i < 10; i++ {
		star.AddEdge(0, i, 5)
	}
	if h := hopDepth(path); h != 20 {
		t.Errorf("path: depth %d, want 20", h)
	}
	if h := hopDepth(star); h != 2 {
		t.Errorf("star: depth %d, want 2", h)
	}
	// Among equal-length routes the fewest edges count: 0-1-2-3 (3 edges)
	// ties 0-3 (1 edge, weight 3).
	tie := cliqueapsp.NewGraph(4)
	for _, e := range [][3]int{{0, 1, 1}, {1, 2, 1}, {2, 3, 1}, {0, 3, 3}} {
		tie.AddEdge(e[0], e[1], int64(e[2]))
	}
	if h := hopDepth(tie); h != 2 {
		t.Errorf("tie: depth %d, want 2", h)
	}
	if h := hopDepth(serveGraph(32)); h <= 16 || h > 32 {
		t.Errorf("serveGraph: depth %d, want (16, 32]", h)
	}
}

func TestSSSPMatchesLibrary(t *testing.T) {
	g := genGraph(300, 5)
	c := newCSR(g)
	for src := 0; src < g.N(); src += 13 {
		want, err := cliqueapsp.SSSP(g, src)
		if err != nil {
			t.Fatal(err)
		}
		if got := c.sssp(src); !reflect.DeepEqual(got, want) {
			t.Fatalf("row %d differs from cliqueapsp.SSSP", src)
		}
	}
}

// The truth walk shares unchanged rows across versions; every version must
// still equal a from-scratch SSSP of that version's graph.
func TestTruthFollowsDeltas(t *testing.T) {
	g := genGraph(300, 6)
	ds := deltaStream(g, 6, 2*deltaCycle)
	tr := newTruth(g)
	cur := g
	for k, d := range ds {
		tr.push(d)
		next, err := cur.Apply(cliqueapsp.GraphDelta{Edges: []cliqueapsp.EdgeDelta{
			{Op: cliqueapsp.DeltaReweight, U: d.u, V: d.v, W: d.new}}})
		if err != nil {
			t.Fatal(err)
		}
		cur = next
		for src := 0; src < g.N(); src += 17 {
			want, _ := cliqueapsp.SSSP(cur, src)
			if got := tr.row(k+1, src); !reflect.DeepEqual(got, want) {
				t.Fatalf("version %d row %d differs from SSSP", k+1, src)
			}
		}
	}
}

func TestDeltaStreamCycle(t *testing.T) {
	g := genGraph(nodes, derive(2, "graph"))
	ds := deltaStream(g, 2, 2*deltaCycle)
	c := newCSR(g)
	dist := make([][]int64, nodes)
	for s := range dist {
		dist[s] = c.sssp(s)
	}
	for k, d := range ds {
		if w, ok := c.weight(d.u, d.v); !ok || w != d.old {
			t.Fatalf("delta %d: edge {%d,%d} weight %d, %v; want %d", k, d.u, d.v, w, ok, d.old)
		}
		if k%2 == 1 {
			if up := ds[k-1]; d.u != up.u || d.v != up.v || d.new != up.old {
				t.Fatalf("delta %d does not undo delta %d", k, k-1)
			}
			c = c.reweighted(d.u, d.v, d.new)
			continue
		}
		if d.new <= d.old || d.new > d.old+maxWeight {
			t.Fatalf("delta %d: %d → %d", k, d.old, d.new)
		}
		f := float64(len(d.affected(dist))+2) / nodes
		heavy := k%deltaCycle == deltaCycle-2
		if heavy && (f <= heavyFrac || f > heavyMax) || !heavy && (f <= lightMin || f > lightMax) {
			t.Fatalf("delta %d: dirty fraction %.3f, heavy position %v", k, f, heavy)
		}
		c = c.reweighted(d.u, d.v, d.new)
	}
}

// checkerFixture is a checker over a 4-node graph (true d(0,3) = 6 via
// 0-1-2-3) serving version 5 with a factor bound of 2. Version 6 lowers
// edge {0,3} to 4, which makes 0-3 the shortest route.
func checkerFixture(t *testing.T) (*checker, *cliqueapsp.Graph) {
	t.Helper()
	g := cliqueapsp.NewGraph(4)
	for _, e := range [][3]int64{{0, 1, 3}, {1, 2, 1}, {2, 3, 2}, {0, 3, 10}} {
		if err := g.AddEdge(int(e[0]), int(e[1]), e[2]); err != nil {
			t.Fatal(err)
		}
	}
	tr := newTruth(g)
	tr.push(edgeDelta{u: 0, v: 3, old: 10, new: 4})
	return newChecker(tr, map[uint64]int{5: 0, 6: 1}, 2, false), g
}

func TestCheckerCatchesBadAnswers(t *testing.T) {
	dist := func(u, v int) *request {
		return &request{kind: opDist, pairs: []pair{{u, v}}}
	}
	path := &request{kind: opPath, pairs: []pair{{0, 3}}}
	cases := []struct {
		name  string
		exact bool
		req   *request
		body  string
		ok    bool
	}{
		{"exact answer", false, dist(0, 3), `{"u":0,"v":3,"distance":6,"reachable":true,"version":5}`, true},
		{"within bound", false, dist(0, 3), `{"u":0,"v":3,"distance":12,"reachable":true,"version":5}`, true},
		{"underrun", false, dist(0, 2), `{"u":0,"v":2,"distance":3,"reachable":true,"version":5}`, false},
		{"over bound", false, dist(1, 3), `{"u":1,"v":3,"distance":7,"reachable":true,"version":5}`, false},
		{"unreachable claim", false, dist(1, 3), `{"u":1,"v":3,"distance":-1,"reachable":false,"version":5}`, false},
		{"wrong pair", false, dist(1, 3), `{"u":3,"v":1,"distance":3,"reachable":true,"version":5}`, false},
		{"unknown version", false, dist(1, 3), `{"u":1,"v":3,"distance":3,"reachable":true,"version":7}`, false},
		{"good path", false, path,
			`{"u":0,"v":3,"reachable":true,"path":[0,1,2,3],"cost":6,"version":5}`, true},
		{"path with a non-edge hop", false, path,
			`{"u":0,"v":3,"reachable":true,"path":[0,2,3],"cost":6,"version":5}`, false},
		{"path cost misreported", false, path,
			`{"u":0,"v":3,"reachable":true,"path":[0,3],"cost":6,"version":5}`, false},
		{"path over bound", false, &request{kind: opPath, pairs: []pair{{1, 3}}},
			`{"u":1,"v":3,"reachable":true,"path":[1,0,3],"cost":13,"version":5}`, false},
		{"path missing an endpoint", false, path,
			`{"u":0,"v":3,"reachable":true,"path":[0,1,2],"cost":4,"version":5}`, false},
		{"batch", false, &request{kind: opBatch, pairs: []pair{{0, 1}, {2, 3}}},
			`{"version":5,"answers":[{"u":0,"v":1,"distance":3,"reachable":true},{"u":2,"v":3,"distance":2,"reachable":true}]}`, true},
		{"batch with an underrun", false, &request{kind: opBatch, pairs: []pair{{0, 1}, {2, 3}}},
			`{"version":5,"answers":[{"u":0,"v":1,"distance":3,"reachable":true},{"u":2,"v":3,"distance":1,"reachable":true}]}`, false},
		{"short batch", false, &request{kind: opBatch, pairs: []pair{{0, 1}, {2, 3}}},
			`{"version":5,"answers":[{"u":0,"v":1,"distance":3,"reachable":true}]}`, false},
		{"shortest path, exact", true, path,
			`{"u":0,"v":3,"reachable":true,"path":[0,1,2,3],"cost":6,"version":5}`, true},
		{"path longer than shortest, exact", true, path,
			`{"u":0,"v":3,"reachable":true,"path":[0,3],"cost":10,"version":5}`, false},
		{"stale route after a reweight, exact", true, path,
			`{"u":0,"v":3,"reachable":true,"path":[0,1,2,3],"cost":6,"version":6}`, false},
		{"new shortest route after a reweight, exact", true, path,
			`{"u":0,"v":3,"reachable":true,"path":[0,3],"cost":4,"version":6}`, true},
	}
	for _, tc := range cases {
		ck, _ := checkerFixture(t)
		if tc.exact {
			ck.exact, ck.factor = true, 1
		}
		if got := ck.response(tc.req, []byte(tc.body)); got != tc.ok {
			t.Errorf("%s: checker passed = %v, want %v (%v)", tc.name, got, tc.ok, ck.msgs)
		}
	}
}

func TestCheckerConsistencyAndExactness(t *testing.T) {
	ck, _ := checkerFixture(t)
	d := &request{kind: opDist, pairs: []pair{{0, 3}}}
	if !ck.response(d, []byte(`{"u":0,"v":3,"distance":8,"reachable":true,"version":5}`)) {
		t.Fatal(ck.msgs)
	}
	batch := &request{kind: opBatch, pairs: []pair{{0, 3}}}
	if ck.response(batch, []byte(`{"version":5,"answers":[{"u":0,"v":3,"distance":7,"reachable":true}]}`)) {
		t.Error("a batch answer differing from dist for the same pair passed")
	}
	if ck.stretchMax != 8.0/6 {
		t.Errorf("stretch %v, want %v", ck.stretchMax, 8.0/6)
	}

	exact, _ := checkerFixture(t)
	exact.exact, exact.factor = true, 1
	if exact.response(d, []byte(`{"u":0,"v":3,"distance":7,"reachable":true,"version":5}`)) {
		t.Error("an inexact answer from an exact tenant passed")
	}

	// An exact route's cost is the pair's answer: dist must agree with it.
	agree, _ := checkerFixture(t)
	agree.exact, agree.factor = true, 1
	agree.seen[[3]uint64{5, 0, 3}] = 7
	path := &request{kind: opPath, pairs: []pair{{0, 3}}}
	if agree.response(path, []byte(`{"u":0,"v":3,"reachable":true,"path":[0,1,2,3],"cost":6,"version":5}`)) {
		t.Error("a route disagreeing with an earlier dist answer passed")
	}
}
