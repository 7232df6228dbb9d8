package main

import (
	"encoding/json"
	"fmt"
	"sync"

	cliqueapsp "github.com/congestedclique/cliqueapsp"
)

// inf marks an unreachable node in a truth row.
const inf = cliqueapsp.Inf

// csr is the benchmark's own copy of a graph version: compressed adjacency
// with weights, independent of the program under test, so the checker's
// ground truth does not share code with the oracle's repair path.
type csr struct {
	n     int
	start []int32 // arcs of u are start[u]..start[u+1]
	to    []int32
	w     []int64
}

func newCSR(g *cliqueapsp.Graph) *csr {
	n := g.N()
	edges := g.Edges()
	c := &csr{n: n, start: make([]int32, n+1), to: make([]int32, 2*len(edges)), w: make([]int64, 2*len(edges))}
	for _, e := range edges {
		c.start[e.U+1]++
		c.start[e.V+1]++
	}
	for u := 0; u < n; u++ {
		c.start[u+1] += c.start[u]
	}
	fill := append([]int32(nil), c.start[:n]...)
	for _, e := range edges {
		c.to[fill[e.U]], c.w[fill[e.U]] = int32(e.V), e.W
		fill[e.U]++
		c.to[fill[e.V]], c.w[fill[e.V]] = int32(e.U), e.W
		fill[e.V]++
	}
	return c
}

// weight returns the weight of edge {u, v}.
func (c *csr) weight(u, v int) (int64, bool) {
	if u < 0 || u >= c.n || v < 0 || v >= c.n {
		return 0, false
	}
	for a := c.start[u]; a < c.start[u+1]; a++ {
		if int(c.to[a]) == v {
			return c.w[a], true
		}
	}
	return 0, false
}

// reweighted returns a copy of c with edge {u, v} at weight w. The topology
// arrays are shared.
func (c *csr) reweighted(u, v int, w int64) *csr {
	out := &csr{n: c.n, start: c.start, to: c.to, w: append([]int64(nil), c.w...)}
	for _, x := range [2][2]int{{u, v}, {v, u}} {
		for a := c.start[x[0]]; a < c.start[x[0]+1]; a++ {
			if int(c.to[a]) == x[1] {
				out.w[a] = w
			}
		}
	}
	return out
}

// sssp is Dijkstra from src over a binary heap with lazy deletion. Heap
// entries pack the tentative distance above the node index, so one integer
// comparison orders them.
func (c *csr) sssp(src int) []int64 { return c.ssspHops(src, nil) }

// ssspHops is sssp that also fills hops (when non-nil) with the fewest
// edges among the shortest paths to each node. With weights ≥ 1 a node's
// hop count is final when it is popped: every tie comes from a node popped
// earlier.
func (c *csr) ssspHops(src int, hops []int32) []int64 {
	const nodeBits = 20 // n < 2^20
	dist := make([]int64, c.n)
	for i := range dist {
		dist[i] = inf
	}
	dist[src] = 0
	if hops != nil {
		hops[src] = 0
	}
	heap := make([]uint64, 1, c.n)
	heap[0] = uint64(src)
	for len(heap) > 0 {
		top := heap[0]
		last := len(heap) - 1
		x := heap[last]
		heap = heap[:last]
		if last > 0 {
			i := 0
			for {
				l := 2*i + 1
				if l >= last {
					break
				}
				if r := l + 1; r < last && heap[r] < heap[l] {
					l = r
				}
				if x <= heap[l] {
					break
				}
				heap[i] = heap[l]
				i = l
			}
			heap[i] = x
		}
		d, u := int64(top>>nodeBits), int32(top&(1<<nodeBits-1))
		if d > dist[u] {
			continue
		}
		for a := c.start[u]; a < c.start[u+1]; a++ {
			v, nd := c.to[a], d+c.w[a]
			if hops != nil && (nd < dist[v] || nd == dist[v] && hops[u]+1 < hops[v]) {
				hops[v] = hops[u] + 1
			}
			if nd < dist[v] {
				dist[v] = nd
				e := uint64(nd)<<nodeBits | uint64(v)
				i := len(heap)
				heap = append(heap, e)
				for i > 0 {
					p := (i - 1) / 2
					if heap[p] <= e {
						break
					}
					heap[i] = heap[p]
					i = p
				}
				heap[i] = e
			}
		}
	}
	return dist
}

// truth serves exact distance rows for every graph version a run served.
// Version k is version k-1 with one edge reweighted; a row is recomputed
// only when that change can alter it, and shared otherwise.
type truth struct {
	graphs []*csr
	edits  []edgeDelta // edits[k-1] turns graphs[k-1] into graphs[k]
	mu     sync.Mutex
	rows   map[int][][]int64 // source → row per version, filled on demand
}

func newTruth(g *cliqueapsp.Graph) *truth {
	return &truth{graphs: []*csr{newCSR(g)}, rows: make(map[int][][]int64)}
}

// push appends the version that d produces from the newest one.
func (t *truth) push(d edgeDelta) {
	last := t.graphs[len(t.graphs)-1]
	t.graphs = append(t.graphs, last.reweighted(d.u, d.v, d.new))
	t.edits = append(t.edits, d)
}

// row returns the exact distances from src in graph version k.
func (t *truth) row(k, src int) []int64 {
	t.mu.Lock()
	rs := t.rows[src]
	t.mu.Unlock()
	if len(rs) <= k {
		rs = t.walk(src, rs)
		t.mu.Lock()
		t.rows[src] = rs
		t.mu.Unlock()
	}
	return rs[k]
}

// walk extends src's rows to every version, re-running Dijkstra only when
// an edit can change the row: an increase of a tight edge, or a decrease
// that opens a shorter route.
func (t *truth) walk(src int, rs [][]int64) [][]int64 {
	if len(rs) == 0 {
		rs = append(rs, t.graphs[0].sssp(src))
	}
	for k := len(rs) - 1; k < len(t.edits); k++ {
		prev := rs[k]
		if len(t.edits[k].affected([][]int64{prev})) > 0 {
			rs = append(rs, t.graphs[k+1].sssp(src))
		} else {
			rs = append(rs, prev)
		}
	}
	return rs
}

// prefetch fills the rows of every source in srcs on workers goroutines.
func (t *truth) prefetch(srcs []int, workers int) {
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for src := range next {
				t.row(0, src)
			}
		}()
	}
	for _, s := range srcs {
		next <- s
	}
	close(next)
	wg.Wait()
}

// Wire shapes of ccserve's query responses.
type wireAnswer struct {
	U         int   `json:"u"`
	V         int   `json:"v"`
	Distance  int64 `json:"distance"`
	Reachable bool  `json:"reachable"`
}

type wireDist struct {
	wireAnswer
	Version uint64 `json:"version"`
}

type wireBatch struct {
	Version uint64       `json:"version"`
	Answers []wireAnswer `json:"answers"`
}

type wirePath struct {
	U         int    `json:"u"`
	V         int    `json:"v"`
	Reachable bool   `json:"reachable"`
	Path      []int  `json:"path"`
	Cost      int64  `json:"cost"`
	Version   uint64 `json:"version"`
}

// checker validates served answers against truth. versions maps a served
// snapshot version to its truth graph version; factor is the tenant's
// proven bound, and exact demands equality.
type checker struct {
	truth    *truth
	versions map[uint64]int
	factor   float64
	exact    bool

	answers    int
	failed     int
	msgs       []string
	stretchMax float64
	seen       map[[3]uint64]int64 // (version, u, v) → served distance
}

func newChecker(t *truth, versions map[uint64]int, factor float64, exact bool) *checker {
	return &checker{truth: t, versions: versions, factor: factor, exact: exact, seen: make(map[[3]uint64]int64)}
}

func (c *checker) fail(format string, args ...any) {
	c.failed++
	if len(c.msgs) < 10 {
		c.msgs = append(c.msgs, fmt.Sprintf(format, args...))
	}
}

func (c *checker) graphVersion(v uint64) (int, bool) {
	k, ok := c.versions[v]
	if !ok {
		c.fail("answer from unknown snapshot version %d", v)
	}
	return k, ok
}

// answer checks one served distance for pair p. It returns false when the
// answer fails a check.
func (c *checker) answer(version uint64, p pair, a wireAnswer) bool {
	c.answers++
	k, ok := c.graphVersion(version)
	if !ok {
		return false
	}
	if a.U != p.u || a.V != p.v {
		c.fail("v%d: asked (%d,%d), answered (%d,%d)", version, p.u, p.v, a.U, a.V)
		return false
	}
	served := a.Distance
	if !a.Reachable {
		served = inf
	}
	if !c.agrees(version, p, served) {
		return false
	}
	want := c.truth.row(k, p.u)[p.v]
	switch {
	case want >= inf && served < inf:
		c.fail("v%d (%d,%d): served %d for an unreachable pair", version, p.u, p.v, served)
	case want < inf && served >= inf:
		c.fail("v%d (%d,%d): reported unreachable, true distance %d", version, p.u, p.v, want)
	case served < want:
		c.fail("v%d (%d,%d): underrun, served %d < true %d", version, p.u, p.v, served, want)
	case c.exact && served != want:
		c.fail("v%d (%d,%d): exact tenant served %d, true %d", version, p.u, p.v, served, want)
	case want > 0 && want < inf && float64(served) > c.factor*float64(want)*(1+1e-12):
		c.fail("v%d (%d,%d): served %d over %g × true %d", version, p.u, p.v, served, c.factor, want)
	default:
		if want > 0 && want < inf {
			if r := float64(served) / float64(want); r > c.stretchMax {
				c.stretchMax = r
			}
		}
		return true
	}
	return false
}

// agrees records served as the answer for p in version and reports whether
// it matches every earlier answer for the same pair and version.
func (c *checker) agrees(version uint64, p pair, served int64) bool {
	key := [3]uint64{version, uint64(p.u), uint64(p.v)}
	if prev, dup := c.seen[key]; dup && prev != served {
		c.fail("v%d (%d,%d): served %d and %d for the same pair", version, p.u, p.v, prev, served)
		return false
	}
	c.seen[key] = served
	return true
}

// path checks a served route: it joins p's endpoints over edges of the
// served version and costs what it reports. On an exact tenant that cost
// is the true distance, and the dist answers for the same pair; otherwise
// it lies between the true distance and factor times it.
func (c *checker) path(p pair, r wirePath) bool {
	c.answers++
	k, ok := c.graphVersion(r.Version)
	if !ok {
		return false
	}
	if r.U != p.u || r.V != p.v {
		c.fail("path v%d: asked (%d,%d), answered (%d,%d)", r.Version, p.u, p.v, r.U, r.V)
		return false
	}
	want := c.truth.row(k, p.u)[p.v]
	if !r.Reachable {
		if want < inf {
			c.fail("path v%d (%d,%d): reported unreachable, true distance %d", r.Version, p.u, p.v, want)
			return false
		}
		return true
	}
	if len(r.Path) == 0 || r.Path[0] != p.u || r.Path[len(r.Path)-1] != p.v {
		c.fail("path v%d (%d,%d): route %v does not join the endpoints", r.Version, p.u, p.v, r.Path)
		return false
	}
	g := c.truth.graphs[k]
	var cost int64
	for i := 1; i < len(r.Path); i++ {
		w, ok := g.weight(r.Path[i-1], r.Path[i])
		if !ok {
			c.fail("path v%d (%d,%d): hop %d→%d is not an edge", r.Version, p.u, p.v, r.Path[i-1], r.Path[i])
			return false
		}
		cost += w
	}
	switch {
	case cost != r.Cost:
		c.fail("path v%d (%d,%d): reported cost %d, hops sum to %d", r.Version, p.u, p.v, r.Cost, cost)
	case cost < want:
		c.fail("path v%d (%d,%d): cost %d below true distance %d", r.Version, p.u, p.v, cost, want)
	case c.exact && cost != want:
		c.fail("path v%d (%d,%d): exact tenant routed at cost %d, true %d", r.Version, p.u, p.v, cost, want)
	case want > 0 && float64(cost) > c.factor*float64(want)*(1+1e-12):
		c.fail("path v%d (%d,%d): cost %d over %g × true %d", r.Version, p.u, p.v, cost, c.factor, want)
	default:
		// An approximate tenant routes greedily over its estimates, so only
		// an exact route must cost what dist serves for the pair.
		return !c.exact || c.agrees(r.Version, p, cost)
	}
	return false
}

// response decodes and checks one response body to req, reporting whether
// every answer in it passed.
func (c *checker) response(req *request, body []byte) bool {
	before := c.failed
	switch req.kind {
	case opDist:
		var r wireDist
		if err := json.Unmarshal(body, &r); err != nil {
			c.fail("dist response: %v", err)
			return false
		}
		c.answer(r.Version, req.pairs[0], r.wireAnswer)
	case opBatch:
		var r wireBatch
		if err := json.Unmarshal(body, &r); err != nil || len(r.Answers) != len(req.pairs) {
			c.fail("batch response: %d answers for %d pairs (%v)", len(r.Answers), len(req.pairs), err)
			return false
		}
		for i, a := range r.Answers {
			c.answer(r.Version, req.pairs[i], a)
		}
	case opPath:
		var r wirePath
		if err := json.Unmarshal(body, &r); err != nil {
			c.fail("path response: %v", err)
			return false
		}
		c.path(req.pairs[0], r)
	}
	return c.failed == before
}
