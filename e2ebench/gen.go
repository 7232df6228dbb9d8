package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"sort"

	cliqueapsp "github.com/congestedclique/cliqueapsp"
)

// Workload shape. Every graph is the "random" generator's (average degree
// about 6) at n nodes with weights uniform in [1, maxWeight].
const (
	nodes        = 1024
	maxWeight    = 100
	ballastNodes = 1100 // serve-cold: the second tenant, whose admission demotes the first
	maxTotalN    = 2100 // -maxtotaln: two n=1024 tenants fit hot, n=1024 beside the ballast does not
	batchPairs   = 64
	streamLen    = 4096 // requests per stream cycle; the closed loop cycles it
	buildPool    = 3    // build: distinct graphs, each uploaded once per run
	zipfS        = 1.0
	patchCycles  = 2 // patch: delta cycles a run sends (twice that in a traced run)
)

// derive maps the workload seed and a stream label to an independent seed,
// so adding a stream never shifts the values another stream draws.
func derive(seed int64, label string) int64 {
	h := fnv.New64a()
	h.Write([]byte(label))
	z := uint64(seed) ^ h.Sum64()
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	if z == 0 {
		z = 1 // a pinned algorithm seed of 0 would mean "unpinned"
	}
	return int64(z >> 1)
}

func genGraph(n int, seed int64) *cliqueapsp.Graph {
	g, err := cliqueapsp.Generate("random", n, 1, maxWeight, seed)
	if err != nil {
		panic(err) // "random" accepts every n ≥ 1
	}
	return g
}

// serveGraph draws the graph the exact tenants serve. The exact build
// squares the distance matrix until it stops changing, so its cost is
// proportional to 1 + ceil(log2 h), where h is the most edges any shortest
// path needs. For nine in ten seed-derived graphs 16 < h ≤ 32 (six
// squarings); the rest need five and build a third faster, which would
// make build-time figures depend on the seed more than on the program.
// Candidates are drawn until one is in the common class.
func serveGraph(seed int64) *cliqueapsp.Graph {
	for i := 0; ; i++ {
		label := "graph"
		if i > 0 {
			label = fmt.Sprintf("graph-%d", i)
		}
		g := genGraph(nodes, derive(seed, label))
		if h := hopDepth(g); h > 16 && h <= 32 {
			return g
		}
	}
}

// hopDepth is the most edges any shortest path of g needs.
func hopDepth(g *cliqueapsp.Graph) int {
	c := newCSR(g)
	hops := make([]int32, c.n)
	h := int32(0)
	for s := 0; s < c.n; s++ {
		c.ssspHops(s, hops)
		for _, x := range hops {
			if x > h {
				h = x
			}
		}
	}
	return int(h)
}

// zipf draws ranks 0..n-1 with P(r) ∝ 1/(r+1)^s and maps them through a
// permutation, so the popular nodes are spread over the graph.
type zipf struct {
	cdf  []float64
	perm []int
}

func newZipf(n int, s float64, rng *rand.Rand) *zipf {
	z := &zipf{cdf: make([]float64, n), perm: rng.Perm(n)}
	total := 0.0
	for r := 0; r < n; r++ {
		total += 1 / math.Pow(float64(r+1), s)
		z.cdf[r] = total
	}
	for r := range z.cdf {
		z.cdf[r] /= total
	}
	return z
}

func (z *zipf) rank(rng *rand.Rand) int {
	r := sort.SearchFloat64s(z.cdf, rng.Float64())
	if r >= len(z.cdf) {
		r = len(z.cdf) - 1
	}
	return r
}

func (z *zipf) draw(rng *rand.Rand) int { return z.perm[z.rank(rng)] }

type opKind uint8

const (
	opDist opKind = iota
	opBatch
	opPath
	numOps
)

var opNames = [numOps]string{"dist", "batch", "path"}

type pair struct{ u, v int }

// request is one query of the serving mix. target is its path and query
// string; body is the JSON body of a batch.
type request struct {
	kind   opKind
	pairs  []pair // one pair for dist and path, batchPairs for batch
	target string
	body   []byte
}

// requestStream draws the serving mix: 80% dist, 15% batch of 64 pairs, 5%
// path. Sources follow Zipf(s=1) over a seed-permuted node order; targets
// are uniform over the other nodes.
func requestStream(seed int64, tenant string, n, length int) []request {
	rng := rand.New(rand.NewSource(derive(seed, "requests")))
	z := newZipf(n, zipfS, rng)
	draw := func() pair {
		u := z.draw(rng)
		v := rng.Intn(n - 1)
		if v >= u {
			v++
		}
		return pair{u, v}
	}
	out := make([]request, length)
	for i := range out {
		var r request
		switch x := rng.Intn(100); {
		case x < 80:
			r.kind = opDist
		case x < 95:
			r.kind = opBatch
		default:
			r.kind = opPath
		}
		if r.kind == opBatch {
			r.pairs = make([]pair, batchPairs)
			body := []byte(`{"pairs":[`)
			for j := range r.pairs {
				p := draw()
				r.pairs[j] = p
				if j > 0 {
					body = append(body, ',')
				}
				body = append(body, fmt.Sprintf("[%d,%d]", p.u, p.v)...)
			}
			r.body = append(body, "]}"...)
			r.target = "/v1/graphs/" + tenant + "/batch"
		} else {
			p := draw()
			r.pairs = []pair{p}
			r.target = fmt.Sprintf("/v1/graphs/%s/%s?u=%d&v=%d", tenant, opNames[r.kind], p.u, p.v)
		}
		out[i] = r
	}
	return out
}

// edgeDelta is one single-edge reweight of the patch workload, with the
// weight it replaces.
type edgeDelta struct {
	u, v     int
	old, new int64
}

// deltaCycle is the period of the patch stream: in every run of six deltas
// the fifth is a heavy increase. Left to chance, about one delta in six
// dirties more than a quarter of the sources and makes the oracle fall back
// from repair to a full rebuild; fixing the position keeps that natural
// share while every run of whole cycles carries the same number of them.
const deltaCycle = 6

// heavyFrac is the oracle's repair limit: an increase whose endpoints and
// tight sources exceed this fraction of n is rebuilt, not repaired.
const heavyFrac = 0.25

// Each class is drawn from a band of dirty fractions, so the repair cost
// and the share of next-hop rows a publish invalidates vary little from
// seed to seed: light increases dirty (lightMin, lightMax] of the sources,
// heavy ones (heavyFrac, heavyMax]. Light increases stay as cheap to repair
// as the decreases that undo them (a handful of Dijkstras beside the copy
// and persistence every repair pays), so the median PATCH does not sit on
// the edge between two populations.
const (
	lightMin = 0.0
	lightMax = 0.02
	heavyMax = 0.40
)

// deltaStream draws count single-edge reweights of g, valid when applied in
// order. Even positions raise the weight of a random existing edge by
// 1..maxWeight; odd positions lower it back to the weight it had, so half
// the deltas are increases, half are decreases, and the graph returns to g
// after every pair. Each increase is drawn until its dirty fraction,
// judged on the exact distances of g, falls in the band of the class its
// position in the cycle asks for.
func deltaStream(g *cliqueapsp.Graph, seed int64, count int) []edgeDelta {
	rng := rand.New(rand.NewSource(derive(seed, "deltas")))
	edges := g.Edges()
	c := newCSR(g)
	dist := make([][]int64, c.n)
	for s := range dist {
		dist[s] = c.sssp(s)
	}
	out := make([]edgeDelta, 0, count)
	for len(out) < count {
		if len(out)%2 == 1 {
			up := out[len(out)-1]
			out = append(out, edgeDelta{u: up.u, v: up.v, old: up.new, new: up.old})
			continue
		}
		e := edges[rng.Intn(len(edges))]
		d := edgeDelta{u: e.U, v: e.V, old: e.W, new: e.W + 1 + rng.Int63n(maxWeight)}
		lo, hi := lightMin, lightMax
		if len(out)%deltaCycle == deltaCycle-2 {
			lo, hi = heavyFrac, heavyMax
		}
		if f := float64(len(d.affected(dist))+2) / float64(c.n); f > lo && f <= hi {
			out = append(out, d)
		}
	}
	return out
}

// affected lists the sources whose exact distance row d can change: for an
// increase, those whose shortest paths use the edge tightly; for a
// decrease, those it gives a shorter route.
func (d edgeDelta) affected(dist [][]int64) []int {
	var out []int
	for s, row := range dist {
		du, dv := row[d.u], row[d.v]
		var hit bool
		if d.new > d.old {
			hit = (du < inf && du+d.old == dv) || (dv < inf && dv+d.old == du)
		} else {
			hit = (du < inf && du+d.new < dv) || (dv < inf && dv+d.new < du)
		}
		if hit {
			out = append(out, s)
		}
	}
	return out
}

func (d edgeDelta) body() []byte {
	return []byte(fmt.Sprintf(`{"edges":[{"op":"reweight","u":%d,"v":%d,"w":%d}]}`, d.u, d.v, d.new))
}

// graphJSON renders g as the JSON upload body ccserve accepts.
func graphJSON(g *cliqueapsp.Graph) []byte {
	b := []byte(fmt.Sprintf(`{"n":%d,"edges":[`, g.N()))
	for i, e := range g.Edges() {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, fmt.Sprintf("[%d,%d,%d]", e.U, e.V, e.W)...)
	}
	return append(b, "]}"...)
}
