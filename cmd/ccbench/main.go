// Command ccbench regenerates the experiment tables: one experiment per
// theorem/lemma guarantee of the paper (t1..t9 for the tables, f1/f2 for
// the figures; `ccbench -list` prints the index).
//
// Examples:
//
//	ccbench                  # run everything, plain text
//	ccbench -exp t1,t2       # selected experiments
//	ccbench -md > results.md # markdown output
//	ccbench -quick           # small smoke-test sweep
//	ccbench -quick -json     # machine-readable report (BENCH_*.json, CI)
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"text/tabwriter"
	"time"

	cliqueapsp "github.com/congestedclique/cliqueapsp"
	"github.com/congestedclique/cliqueapsp/internal/experiments"
	"github.com/congestedclique/cliqueapsp/internal/minplus"
	"github.com/congestedclique/cliqueapsp/internal/registry"
	"github.com/congestedclique/cliqueapsp/internal/sched"
	"github.com/congestedclique/cliqueapsp/obs"
	"github.com/congestedclique/cliqueapsp/obs/trace"
	"github.com/congestedclique/cliqueapsp/oracle"
	"github.com/congestedclique/cliqueapsp/store"
	"github.com/congestedclique/cliqueapsp/tier"
)

func main() {
	var (
		exp   = flag.String("exp", "all", "comma-separated experiment IDs (t1..t9,f1,f2) or 'all'")
		sizes = flag.String("sizes", "", "comma-separated graph sizes (default per suite)")
		seed  = flag.Int64("seed", 1, "random seed")
		quick = flag.Bool("quick", false, "shrink sweeps for a fast smoke run")
		md    = flag.Bool("md", false, "emit Markdown instead of plain text")
		jsonF = flag.Bool("json", false, "emit a machine-readable JSON report (tables + per-experiment elapsed_ns)")
		list  = flag.Bool("list", false, "list experiments and the algorithm registry, then exit")
	)
	flag.Parse()

	if *list {
		fmt.Println("experiments:")
		for _, id := range experiments.IDs() {
			fmt.Printf("  %s\n", id)
		}
		fmt.Println("algorithm registry (swept by t1/f1: headline + baselines):")
		w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
		fmt.Fprintln(w, "  name\tfactor bound\trounds\tbandwidth\tbaseline")
		for _, spec := range registry.All() {
			fmt.Fprintf(w, "  %s\t%s\t%s\t%s\t%v\n",
				spec.Name, spec.FactorBound, spec.RoundClass, spec.Bandwidth, spec.Baseline)
		}
		if err := w.Flush(); err != nil {
			fatal(err)
		}
		return
	}

	suite := experiments.Suite{Seed: *seed, Quick: *quick}
	if *sizes != "" {
		for _, part := range strings.Split(*sizes, ",") {
			v, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil || v < 2 {
				fatal(fmt.Errorf("invalid size %q", part))
			}
			suite.Sizes = append(suite.Sizes, v)
		}
	}

	ids := experiments.IDs()
	if *exp != "all" {
		ids = nil
		for _, part := range strings.Split(*exp, ",") {
			ids = append(ids, strings.TrimSpace(part))
		}
	}

	if *jsonF {
		report, err := experiments.RunJSON(ids, suite)
		if err != nil {
			fatal(err)
		}
		sb, err := benchStore(*seed)
		if err != nil {
			fatal(err)
		}
		report.Store = sb
		tb, err := benchTier(*seed)
		if err != nil {
			fatal(err)
		}
		report.Tier = tb
		report.Obs = benchObs()
		report.Trace = benchTrace()
		kb, err := benchKernel(*seed)
		if err != nil {
			fatal(err)
		}
		report.Kernel = kb
		pb, err := benchPatch(*seed, *quick)
		if err != nil {
			fatal(err)
		}
		report.Patch = pb
		if err := experiments.WriteJSON(os.Stdout, report); err != nil {
			fatal(err)
		}
		return
	}

	for _, id := range ids {
		table, err := experiments.ByID(id, suite)
		if err != nil {
			fatal(err)
		}
		if *md {
			fmt.Print(experiments.RenderMarkdown(table))
		} else {
			fmt.Println(experiments.Render(table))
		}
	}
}

// storeBenchN is the snapshot size the -json report benchmarks: large
// enough (an 8 MiB distance matrix) that throughput reflects the streaming
// row codec rather than fixed overheads, small enough to keep CI fast.
const storeBenchN = 1024

// benchSnapshot builds the deterministic synthetic n=1024 snapshot both
// persistence benchmarks share. The distance entries are filler: codec and
// row-read costs are pure streaming and do not depend on the values.
func benchSnapshot(seed int64) (*store.Snapshot, error) {
	g := cliqueapsp.RandomGraph(storeBenchN, 100, seed)
	dist, err := cliqueapsp.DistancesFromRows(storeBenchN, func(u int, dst []int64) error {
		for v := range dst {
			dst[v] = int64((u*31+v*7)%1000 + 1)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &store.Snapshot{
		Version:     1,
		Algorithm:   "bench",
		FactorBound: 1,
		Eps:         0.1,
		Seed:        seed,
		Engine:      cliqueapsp.EngineVersion,
		Graph:       g,
		Distances:   dist,
	}, nil
}

// benchStore times the snapshot codec on one synthetic n=1024 snapshot so
// persistence cost lands in the perf trajectory alongside the algorithms.
func benchStore(seed int64) (*experiments.StoreBench, error) {
	snap, err := benchSnapshot(seed)
	if err != nil {
		return nil, err
	}

	buf := bytes.NewBuffer(make([]byte, 0, 8*storeBenchN*storeBenchN+64*1024))
	start := time.Now()
	if err := store.Encode(buf, snap); err != nil {
		return nil, err
	}
	encodeNS := time.Since(start).Nanoseconds()

	size := int64(buf.Len())
	start = time.Now()
	if _, err := store.Decode(bytes.NewReader(buf.Bytes())); err != nil {
		return nil, err
	}
	decodeNS := time.Since(start).Nanoseconds()

	mbps := func(ns int64) float64 {
		if ns <= 0 {
			return 0
		}
		return float64(size) / 1e6 / (float64(ns) / 1e9)
	}
	return &experiments.StoreBench{
		N:          storeBenchN,
		Bytes:      size,
		EncodeNS:   encodeNS,
		DecodeNS:   decodeNS,
		EncodeMBps: mbps(encodeNS),
		DecodeMBps: mbps(decodeNS),
	}, nil
}

// tierCacheRows is the hot-row cache bound benchTier opens its reader with:
// the ccserve default, and well under storeBenchN so the cold sweep below
// never gets an accidental cache hit.
const tierCacheRows = 64

// benchTier times the disk-tier read path on the same synthetic snapshot:
// one cold sweep over all N rows (every read a miss: pread + row decode),
// then a burst of lookups that all land in the hot-row cache. The pair
// brackets a cold tenant's serving cost — compare cold_mb_per_s with the
// store decode throughput to see what a row read saves over a full decode.
func benchTier(seed int64) (*experiments.TierBench, error) {
	snap, err := benchSnapshot(seed)
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp("", "ccbench-tier-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	d, err := store.Open(dir)
	if err != nil {
		return nil, err
	}
	if err := d.Save("bench", snap); err != nil {
		return nil, err
	}
	r, err := tier.NewStore(d).OpenCold("bench", snap.Version, tierCacheRows)
	if err != nil {
		return nil, err
	}
	defer r.Close()

	start := time.Now()
	for u := 0; u < storeBenchN; u++ {
		if _, err := r.Row(u); err != nil {
			return nil, err
		}
	}
	coldNS := time.Since(start).Nanoseconds()

	// The sweep left the last tierCacheRows rows resident; hammer those.
	const hits = 1 << 18
	start = time.Now()
	for i := 0; i < hits; i++ {
		if _, err := r.Row(storeBenchN - 1 - i%tierCacheRows); err != nil {
			return nil, err
		}
	}
	hitNS := time.Since(start).Nanoseconds()

	perSec := func(count int, ns int64) float64 {
		if ns <= 0 {
			return 0
		}
		return float64(count) / (float64(ns) / 1e9)
	}
	return &experiments.TierBench{
		N:            storeBenchN,
		CacheRows:    tierCacheRows,
		ColdNS:       coldNS,
		ColdRowsPerS: perSec(storeBenchN, coldNS),
		ColdMBps:     float64(storeBenchN) * 8 * storeBenchN / 1e6 / (float64(coldNS) / 1e9),
		Hits:         hits,
		HitNS:        hitNS,
		HitsPerS:     perSec(hits, hitNS),
	}, nil
}

// benchObs times the metrics layer ccserve puts on every request: resolved
// counter increments (the per-request hot path) and one full exposition
// render over a registry shaped like a busy server's (route×status counters,
// latency histograms, per-tenant outcomes). Deterministic, so no seed.
func benchObs() *experiments.ObsBench {
	reg := obs.NewRegistry()
	requests := reg.Counter("bench_requests_total", "bench", "route", "status")
	latency := reg.Histogram("bench_request_duration_seconds", "bench",
		obs.DefBuckets, "route", "status")
	tenants := reg.Counter("bench_tenant_requests_total", "bench", "tenant", "outcome")

	routes := []string{"/v1/dist", "/v1/batch", "/v1/path", "/v1/graph",
		"/v1/stats", "/v1/graphs", "/v1/graphs/{name}/dist", "/v1/graphs/{name}/batch"}
	statuses := []string{"200", "202", "400", "404", "429", "503"}
	for _, route := range routes {
		for i, status := range statuses {
			requests.With(route, status).Inc()
			latency.With(route, status).Observe(float64(i) / 100)
		}
	}
	for i := 0; i < 64; i++ {
		tenants.With(fmt.Sprintf("tenant-%02d", i), "served").Inc()
	}

	const increments = 1 << 20
	start := time.Now()
	for i := 0; i < increments; i++ {
		requests.With(routes[i%len(routes)], "200").Inc()
	}
	incNS := time.Since(start).Nanoseconds()

	var sb strings.Builder
	start = time.Now()
	reg.Expose(&sb)
	renderNS := time.Since(start).Nanoseconds()

	series := len(routes)*len(statuses)*2 + 64
	incPerS := 0.0
	if incNS > 0 {
		incPerS = float64(increments) / (float64(incNS) / 1e9)
	}
	return &experiments.ObsBench{
		Increments:  increments,
		IncNS:       incNS,
		IncPerS:     incPerS,
		Series:      series,
		RenderNS:    renderNS,
		RenderBytes: sb.Len(),
	}
}

// benchTrace times the tracing layer from both sides of the sampling
// decision. The sampled loop does the full per-request span work ccserve's
// middleware and oracle path perform — mint a root, open a child, set
// attrs, End both — against a tracer whose store swallows everything. The
// unsampled loop is the passthrough every untraced request pays: one
// Sample() coin flip plus a StartSpan on a span-free context, which must
// stay allocation-free and near-instant. Deterministic work, so no seed.
func benchTrace() *experiments.TraceBench {
	perSec := func(count int, ns int64) float64 {
		if ns <= 0 {
			return 0
		}
		return float64(count) / (float64(ns) / 1e9)
	}

	const sampledOps = 1 << 16
	tracer := trace.NewTracer(1, trace.NewStore(64))
	start := time.Now()
	for i := 0; i < sampledOps; i++ {
		root := tracer.StartRoot("GET /v1/dist", trace.TraceID{}, trace.SpanID{})
		root.SetInt("u", int64(i))
		ctx := trace.ContextWith(context.Background(), root)
		_, child := trace.StartSpan(ctx, "oracle.dist")
		child.SetInt("version", 1)
		child.End()
		root.SetStatus(200)
		root.End()
	}
	sampledNS := time.Since(start).Nanoseconds()

	const unsampledOps = 1 << 22
	off := trace.NewTracer(0, nil)
	ctx := context.Background()
	start = time.Now()
	for i := 0; i < unsampledOps; i++ {
		if off.Sample() {
			panic("sample rate 0 sampled a request")
		}
		_, sp := trace.StartSpan(ctx, "oracle.dist")
		sp.End()
	}
	unsampledNS := time.Since(start).Nanoseconds()

	return &experiments.TraceBench{
		SampledOps:    sampledOps,
		SampledNS:     sampledNS,
		SampledPerS:   perSec(sampledOps, sampledNS),
		UnsampledOps:  unsampledOps,
		UnsampledNS:   unsampledNS,
		UnsampledPerS: perSec(unsampledOps, unsampledNS),
	}
}

// kernelSizes are the matrix sizes the kernel suite measures: one L2-scale
// product and one big enough (8 MiB per operand) that tiling and the worker
// sweep both matter. CI gates tiled+pooled speedup at the larger size.
var kernelSizes = [...]int{256, 1024}

// kernelDense builds a deterministic random min-plus matrix shaped like the
// pipelines' distance matrices: zero diagonal, ~2/3 finite entries.
func kernelDense(n int, rng *rand.Rand) *minplus.Dense {
	d := minplus.NewDense(n)
	d.SetDiagZero()
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j && rng.Intn(3) != 0 {
				d.Set(i, j, int64(rng.Intn(50)+1))
			}
		}
	}
	return d
}

// benchKernel times the min-plus dense kernel: the retained untiled
// single-thread reference (MulNaive) against the tiled, pool-scheduled
// MulTo across a worker sweep (1, 2, 4, … up to the shared pool). Reported
// throughput is GFLOP-equivalent at 2·n³ semiring ops per product; the
// speedup column is the CI regression gate for the compute path.
func benchKernel(seed int64) (*experiments.KernelBench, error) {
	pool := sched.Shared()
	kb := &experiments.KernelBench{PoolWorkers: pool.Workers()}
	rng := rand.New(rand.NewSource(seed))
	for _, n := range kernelSizes {
		a, b := kernelDense(n, rng), kernelDense(n, rng)
		gflop := 2 * float64(n) * float64(n) * float64(n) / 1e9

		start := time.Now()
		want := a.MulNaive(b)
		naiveNS := time.Since(start).Nanoseconds()

		size := experiments.KernelSize{
			N:        n,
			NaiveNS:  naiveNS,
			NaiveGFs: gflop / (float64(naiveNS) / 1e9),
		}
		dst := minplus.NewDense(n)
		for w := 1; ; w *= 2 {
			if w > pool.Workers() {
				if prev := w / 2; prev < pool.Workers() {
					w = pool.Workers() // always end the sweep at the full pool
				} else {
					break
				}
			}
			g := pool.Group(context.Background(), w)
			best := int64(0)
			for rep := 0; rep < 2; rep++ {
				start = time.Now()
				if err := a.MulTo(g, dst, b); err != nil {
					return nil, err
				}
				if ns := time.Since(start).Nanoseconds(); best == 0 || ns < best {
					best = ns
				}
			}
			if !dst.Equal(want) {
				return nil, fmt.Errorf("kernel bench: tiled product diverges from naive at n=%d w=%d", n, w)
			}
			point := experiments.KernelWorkers{
				Workers: w,
				NS:      best,
				GFLOPs:  gflop / (float64(best) / 1e9),
				Speedup: float64(naiveNS) / float64(best),
			}
			size.Tiled = append(size.Tiled, point)
			if point.Speedup > size.SpeedupMax {
				size.SpeedupMax = point.Speedup
			}
			if w >= pool.Workers() {
				break
			}
		}
		kb.Sizes = append(kb.Sizes, size)
	}
	return kb, nil
}

// patchSizes are the graph sizes the patch suite measures; -quick keeps only
// the smaller one. The workload is the standard random generator (average
// degree ~6) with the same weight range the persistence benchmarks use.
var patchSizes = [...]int{256, 1024}

// timePatch publishes one graph and then one single-edge reweight (+1, an
// increase — the expensive direction: the repair must prove which sources
// the old weight was load-bearing for) through a fresh oracle with the given
// fallback threshold. It returns the wall time of each publish and whether
// the delta went through the repair path or fell back to a rebuild.
func timePatch(g *cliqueapsp.Graph, frac float64) (rebuildNS, patchNS int64, repaired bool, err error) {
	o := oracle.New(oracle.Config{Algorithm: cliqueapsp.AlgExact, RepairMaxDirtyFrac: frac})
	defer o.Close()
	ctx := context.Background()

	start := time.Now()
	v, err := o.SetGraph(g)
	if err == nil {
		err = o.Wait(ctx, v)
	}
	if err != nil {
		return 0, 0, false, err
	}
	rebuildNS = time.Since(start).Nanoseconds()

	e := g.Edges()[0]
	start = time.Now()
	v, err = o.ApplyDelta(cliqueapsp.GraphDelta{Edges: []cliqueapsp.EdgeDelta{
		{Op: cliqueapsp.DeltaReweight, U: e.U, V: e.V, W: e.W + 1},
	}})
	if err == nil {
		err = o.Wait(ctx, v)
	}
	if err != nil {
		return 0, 0, false, err
	}
	patchNS = time.Since(start).Nanoseconds()
	return rebuildNS, patchNS, o.Stats().Repairs > 0, nil
}

// benchPatch times the incremental-update path: a single-edge reweight
// published through distance repair versus the full rebuild the same delta
// would have cost before, then the dirty-set fallback threshold swept at the
// largest size to show where the repair path hands work back to the rebuild
// loop.
func benchPatch(seed int64, quick bool) (*experiments.PatchBench, error) {
	pb := &experiments.PatchBench{Algorithm: string(cliqueapsp.AlgExact)}
	sizes := patchSizes[:]
	if quick {
		sizes = patchSizes[:1]
	}
	for _, n := range sizes {
		g := cliqueapsp.RandomGraph(n, 100, seed)
		rebuildNS, repairNS, repaired, err := timePatch(g, 1)
		if err != nil {
			return nil, err
		}
		if !repaired {
			return nil, fmt.Errorf("patch bench: single-edge delta at n=%d fell back to a rebuild under frac=1", n)
		}
		speedup := 0.0
		if repairNS > 0 {
			speedup = float64(rebuildNS) / float64(repairNS)
		}
		pb.Sizes = append(pb.Sizes, experiments.PatchSize{
			N: n, M: g.NumEdges(),
			RebuildNS: rebuildNS, RepairNS: repairNS, Speedup: speedup,
		})
	}

	// Threshold sweep: -1 disables repair outright, tiny fractions starve
	// the dirty-set budget, generous ones let the single edge through.
	fracN := sizes[len(sizes)-1]
	g := cliqueapsp.RandomGraph(fracN, 100, seed)
	pb.FracN = fracN
	for _, frac := range []float64{-1, 0.001, 0.05, 0.25, 1} {
		_, ns, repaired, err := timePatch(g, frac)
		if err != nil {
			return nil, err
		}
		pb.FracSweep = append(pb.FracSweep, experiments.PatchFrac{Frac: frac, Repaired: repaired, NS: ns})
	}
	return pb, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ccbench:", err)
	os.Exit(1)
}
