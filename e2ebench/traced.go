package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	cliqueapsp "github.com/congestedclique/cliqueapsp"
	"github.com/congestedclique/cliqueapsp/oracle"
	"github.com/congestedclique/cliqueapsp/store"
	"github.com/congestedclique/cliqueapsp/tier"
)

// span is one benchmark-owned timing record around a call into a layer.
// Spans are kept in memory and written as JSON lines when the run ends.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the traced run started
	Dur    int64  `json:"dur_ns"`
	Count  int    `json:"count,omitempty"` // operations the span covers, when more than one
}

// engine phases as Result.Phases names them, and the progress checkpoint
// that opens each. Checkpoints of the nested pipelines (largebw/*,
// smalldiam/*) fall inside the phase open at the time.
var enginePhases = []struct{ mark, name string }{
	{"theorem11/knearest", "knearest"},
	{"theorem11/skeleton", "skeleton"},
	{"theorem11/thm81-on-skeleton", "thm81-on-skeleton"},
	{"theorem11/translate", "skeleton-translate"},
}

// layerMetrics lists every per-layer metric with its unit. A traced run
// prints all of them; a metric whose layer the workload does not exercise
// reads 0.
var layerMetrics = func() [][2]string {
	m := [][2]string{
		{"cliqueapsp.run_s", "s"}, {"cliqueapsp.run_serial_s", "s"},
		{"cliqueapsp.alloc_mb", "MB"}, {"cliqueapsp.mallocs", "count"},
		{"cc.rounds.total", "count"}, {"cc.words.total", "count"},
	}
	for _, p := range enginePhases {
		m = append(m, [2]string{"cliqueapsp.phase." + p.name + "_s", "s"},
			[2]string{"cc.rounds." + p.name, "count"}, [2]string{"cc.words." + p.name, "count"})
	}
	return append(m,
		[2]string{"store.save_s", "s"}, [2]string{"store.bytes", "bytes"}, [2]string{"store.load_s", "s"},
		[2]string{"oracle.publish_s", "s"},
		[2]string{"oracle.dist_us", "us"}, [2]string{"oracle.batch_us", "us"}, [2]string{"oracle.path_us", "us"},
		[2]string{"oracle.nexthop_rows_per_path", "rows"}, [2]string{"oracle.path_refused_ratio", "ratio"},
		[2]string{"oracle.repair_s", "s"}, [2]string{"oracle.repairs", "count"},
		[2]string{"oracle.repair_fallbacks", "count"}, [2]string{"oracle.repair_ratio", "ratio"},
		[2]string{"oracle.coalesced_deltas", "count"},
		[2]string{"tier.row_miss_us", "us"}, [2]string{"tier.row_hit_ratio", "ratio"}, [2]string{"tier.graph_decode_ms", "ms"},
		[2]string{"ccserve.http_overhead_us.dist", "us"}, [2]string{"ccserve.http_overhead_us.batch", "us"},
		[2]string{"ccserve.http_overhead_us.path", "us"},
		[2]string{"ccserve.dist_p90_us", "us"}, [2]string{"ccserve.batch_p90_us", "us"},
		[2]string{"ccserve.path_p90_us", "us"}, [2]string{"ccserve.qps", "1/s"},
		[2]string{"ccserve.publish_s", "s"},
		[2]string{"ccserve.cpu_us_per_req", "us"}, [2]string{"ccserve.resp_bytes.batch", "bytes"},
		[2]string{"bench.client_cpu_share", "ratio"}, [2]string{"bench.trace_overhead", "ratio"},
	)
}()

// tracer is the traced run: spans around the benchmark's calls into each
// layer, the untraced baseline of the same loop, and the per-layer values.
type tracer struct {
	path  string
	t0    time.Time
	mu    sync.Mutex
	next  int64
	spans []span

	val map[string]float64

	base, tracedLat [numOps][]time.Duration
	baseBytes       [numOps]int64
	baseTime        time.Duration
	srvCPU, cliCPU  time.Duration
}

func newTracer(dir, workload string, seed int64) *tracer {
	t := &tracer{
		path: filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", workload, seed)),
		t0:   time.Now(),
		val:  make(map[string]float64),
	}
	for _, m := range layerMetrics {
		t.val[m[0]] = 0
	}
	return t
}

// add records one span and returns its ID.
func (t *tracer) add(parent int64, layer, name string, start time.Time, d time.Duration, count int) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	t.spans = append(t.spans, span{ID: t.next, Parent: parent, Layer: layer, Name: name,
		Start: int64(start.Sub(t.t0)), Dur: int64(d), Count: count})
	return t.next
}

// instrument turns on a span around every request the readers send.
func (t *tracer) instrument(rs []*reader) {
	for _, r := range rs {
		r.span = func(kind opKind, start time.Time, d time.Duration) {
			t.add(0, "ccserve", "http."+opNames[kind], start, d, 0)
		}
	}
}

func (t *tracer) write(name string, start time.Time, d time.Duration) {
	t.add(0, "ccserve", name, start, d, 0)
}

// baseline runs the readers' loop untraced, measuring the server's and the
// harness's CPU time over it.
func (t *tracer) baseline(s *session, rs []*reader, run func()) *opLog {
	for _, r := range rs {
		r.span = nil
	}
	srv0, _ := s.srv.cpuTime()
	cli0, _ := procCPU(os.Getpid())
	start := time.Now()
	run()
	t.baseTime += time.Since(start)
	srv1, _ := s.srv.cpuTime()
	cli1, _ := procCPU(os.Getpid())
	l := collect(rs)
	t.srvCPU += srv1 - srv0
	t.cliCPU += cli1 - cli0
	for k := range l.lat {
		t.base[k] = append(t.base[k], l.lat[k]...)
		t.baseBytes[k] += l.bytes[k]
	}
	return l
}

// traced accumulates the latencies of a traced loop.
func (t *tracer) traced(l *opLog) {
	for k := range l.lat {
		t.tracedLat[k] = append(t.tracedLat[k], l.lat[k]...)
	}
}

func p50(ds []time.Duration) float64 {
	v, err := percentile(micros(ds), 0.5)
	if err != nil {
		return 0
	}
	return v
}

// metrics runs the in-process part of the traced run for the workload,
// derives every per-layer value, and writes the spans.
func (t *tracer) metrics(b *bench, s *session, m *measured) (map[string]metric, error) {
	queries := 0
	for k := range t.base {
		queries += len(t.base[k])
	}
	if queries > 0 {
		t.val["ccserve.qps"] = float64(queries) / t.baseTime.Seconds()
		for k := opKind(0); k < numOps; k++ {
			if v, err := percentile(micros(t.base[k]), 0.9); err == nil {
				t.val["ccserve."+opNames[k]+"_p90_us"] = v
			}
		}
		t.val["ccserve.cpu_us_per_req"] = float64(t.srvCPU.Microseconds()) / float64(queries)
		if t.srvCPU+t.cliCPU > 0 {
			t.val["bench.client_cpu_share"] = t.cliCPU.Seconds() / (t.srvCPU + t.cliCPU).Seconds()
		}
	}
	t.val["ccserve.publish_s"] = trimmedMean(m.publishes)
	if n := len(t.base[opBatch]); n > 0 {
		t.val["ccserve.resp_bytes.batch"] = float64(t.baseBytes[opBatch]) / float64(n)
	}
	if b0 := p50(t.base[opDist]); b0 > 0 {
		t.val["bench.trace_overhead"] = p50(t.tracedLat[opDist])/b0 - 1
	}

	var err error
	switch b.workload {
	case "build":
		err = t.buildLayers(b, m)
	case "serve-hot", "serve-cold":
		err = t.serveLayers(b, s)
	case "patch":
		err = t.patchLayers(b, m)
	}
	if err != nil {
		return nil, err
	}
	if b.workload != "build" {
		for k := opKind(0); k < numOps; k++ {
			t.val["ccserve.http_overhead_us."+opNames[k]] = p50(t.base[k]) - t.val["oracle."+opNames[k]+"_us"]
		}
	}
	if err := t.flush(); err != nil {
		return nil, err
	}
	out := make(map[string]metric, len(layerMetrics))
	for _, lm := range layerMetrics {
		out[lm[0]] = metric{t.val[lm[0]], lm[1]}
	}
	return out, nil
}

// runEngine runs the constant pipeline on g in-process with the tenant's
// pinned seed, recording each phase as a child span.
func (t *tracer) runEngine(b *bench, g *cliqueapsp.Graph, opts ...cliqueapsp.RunOption) (*cliqueapsp.Result, time.Duration, map[string]time.Duration, error) {
	type mark struct {
		name string
		at   time.Time
	}
	var marks []mark
	opts = append([]cliqueapsp.RunOption{
		cliqueapsp.WithAlgorithm(cliqueapsp.AlgConstant),
		cliqueapsp.WithSeed(b.algSeed),
		cliqueapsp.WithProgress(func(p string) { marks = append(marks, mark{p, time.Now()}) }),
	}, opts...)
	start := time.Now()
	res, err := cliqueapsp.New().Run(context.Background(), g, opts...)
	end := time.Now()
	if err != nil {
		return nil, 0, nil, err
	}
	root := t.add(0, "cliqueapsp", "Engine.Run", start, end.Sub(start), 0)
	phases := make(map[string]time.Duration)
	open := ""
	for i, mk := range marks {
		for _, p := range enginePhases {
			if p.mark == mk.name {
				open = p.name
			}
		}
		until := end
		if i+1 < len(marks) {
			until = marks[i+1].at
		}
		if open != "" {
			phases[open] += until.Sub(mk.at)
		}
		t.add(root, "cliqueapsp", "progress."+mk.name, mk.at, until.Sub(mk.at), 0)
	}
	return res, end.Sub(start), phases, nil
}

// buildLayers: the engine (wide and single-threaded), its round and word
// accounting, the store codec, and the oracle's publish path, all on the
// first graph of the build pool.
func (t *tracer) buildLayers(b *bench, m *measured) error {
	g := m.pool[0]
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	res, d, phases, err := t.runEngine(b, g)
	if err != nil {
		return err
	}
	runtime.ReadMemStats(&ms1)
	t.val["cliqueapsp.run_s"] = d.Seconds()
	t.val["cliqueapsp.alloc_mb"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 20)
	t.val["cliqueapsp.mallocs"] = float64(ms1.Mallocs - ms0.Mallocs)
	for name, pd := range phases {
		t.val["cliqueapsp.phase."+name+"_s"] = pd.Seconds()
	}
	t.val["cc.rounds.total"] = float64(res.Rounds)
	t.val["cc.words.total"] = float64(res.Words)
	for _, p := range res.Phases {
		if _, ok := t.val["cc.rounds."+p.Name]; ok {
			t.val["cc.rounds."+p.Name] = float64(p.Rounds)
			t.val["cc.words."+p.Name] = float64(p.Words)
		}
	}
	_, d, _, err = t.runEngine(b, g, cliqueapsp.WithParallelismRun(1))
	if err != nil {
		return err
	}
	t.val["cliqueapsp.run_serial_s"] = d.Seconds()

	if err := t.storeLayer(b, &store.Snapshot{
		Version: 1, Algorithm: string(res.Algorithm), FactorBound: res.FactorBound,
		Eps: 0.1, Seed: res.Seed, SeedPinned: true, Engine: cliqueapsp.EngineVersion,
		Graph: g, Distances: res.Distances,
	}); err != nil {
		return err
	}

	// The oracle's share of a publish: SetGraph until Wait returns, less
	// the build the rebuild hook reports, with persistence to a store as in
	// ccserve -datadir.
	dir, err := store.Open(filepath.Join(b.dir, "trace-publish"))
	if err != nil {
		return err
	}
	var built time.Duration
	mgr := oracle.NewManager(oracle.ManagerConfig{
		Store:     dir,
		OnRebuild: func(_ string, _ uint64, elapsed time.Duration, _ error) { built = elapsed },
	})
	defer mgr.Close()
	tn, err := mgr.Create(tenant, oracle.TenantConfig{Algorithm: cliqueapsp.AlgConstant, Seed: b.algSeed})
	if err != nil {
		return err
	}
	start := time.Now()
	v, err := tn.SetGraph(g)
	if err == nil {
		err = tn.Wait(context.Background(), v)
	}
	if err != nil {
		return fmt.Errorf("in-process publish: %w", err)
	}
	total := time.Since(start)
	root := t.add(0, "oracle", "SetGraph+Wait", start, total, 0)
	t.add(root, "cliqueapsp", "Engine.Run (rebuild hook)", start, built, 0)
	t.val["oracle.publish_s"] = (total - built).Seconds()

	// Paths on the constant estimate: the share greedy routing refuses.
	var paths, refused int
	for _, r := range b.stream {
		if r.kind == opPath {
			paths++
			if _, err := tn.PathCtx(context.Background(), r.pairs[0].u, r.pairs[0].v); err != nil {
				refused++
			}
		}
	}
	if paths > 0 {
		t.val["oracle.path_refused_ratio"] = float64(refused) / float64(paths)
	}
	return nil
}

// storeLayer times a save and a full load of snap in a fresh store.Dir.
func (t *tracer) storeLayer(b *bench, snap *store.Snapshot) error {
	dir, err := store.Open(filepath.Join(b.dir, "trace-store"))
	if err != nil {
		return err
	}
	start := time.Now()
	if err := dir.Save(tenant, snap); err != nil {
		return err
	}
	d := time.Since(start)
	t.add(0, "store", "Dir.Save", start, d, 0)
	t.val["store.save_s"] = d.Seconds()
	p, err := dir.SnapshotPath(tenant, snap.Version)
	if err != nil {
		return err
	}
	fi, err := os.Stat(p)
	if err != nil {
		return err
	}
	t.val["store.bytes"] = float64(fi.Size())
	start = time.Now()
	if _, err := dir.Load(tenant); err != nil {
		return err
	}
	d = time.Since(start)
	t.add(0, "store", "Dir.Load", start, d, 0)
	t.val["store.load_s"] = d.Seconds()
	return nil
}

// streamLog holds in-process query latencies per kind.
type streamLog [numOps][]time.Duration

// replay sends the stream's requests [from, to) to tn in-process.
func (l *streamLog) replay(tn *oracle.Tenant, stream []request, from, to int) error {
	ctx := context.Background()
	pairs := make([]oracle.Pair, batchPairs)
	for i := from; i < to; i++ {
		r := &stream[i%len(stream)]
		var err error
		start := time.Now()
		switch r.kind {
		case opDist:
			_, err = tn.DistCtx(ctx, r.pairs[0].u, r.pairs[0].v)
		case opBatch:
			for j, p := range r.pairs {
				pairs[j] = oracle.Pair{U: p.u, V: p.v}
			}
			_, err = tn.BatchCtx(ctx, pairs)
		case opPath:
			_, err = tn.PathCtx(ctx, r.pairs[0].u, r.pairs[0].v)
		}
		d := time.Since(start)
		if err != nil {
			return fmt.Errorf("in-process %s: %w", opNames[r.kind], err)
		}
		l[r.kind] = append(l[r.kind], d)
	}
	return nil
}

// serveLayers restores the tenant ccserve persisted, hot or cold as ccserve
// held it, and replays the stream through the oracle in-process; on the
// cold tier it also reads rows through a tier.Reader directly and times a
// full snapshot decode.
func (t *tracer) serveLayers(b *bench, s *session) error {
	dir, err := store.Open(filepath.Join(s.srv.dir, "data"))
	if err != nil {
		return err
	}
	cfg := oracle.ManagerConfig{Store: dir}
	cold := b.workload == "serve-cold"
	if cold {
		cfg.Cold, cfg.ColdCacheRows, cfg.MaxTotalNodes = tier.NewStore(dir), oracle.DefaultColdCacheRows, maxTotalN
	}
	mgr := oracle.NewManager(cfg)
	defer mgr.Close()
	if _, _, err := mgr.RestoreAll(nil); err != nil {
		return err
	}
	tn, err := mgr.Get(tenant)
	if err != nil {
		return err
	}
	if want := map[bool]string{true: "cold", false: "hot"}[cold]; tn.Stats().Tier != want {
		return fmt.Errorf("in-process restore: tenant is %q, want %s", tn.Stats().Tier, want)
	}
	// First pass: the memo (and row cache) fill, as ccserve's warm-up did.
	var first, steady streamLog
	start := time.Now()
	if err := first.replay(tn, b.stream, 0, len(b.stream)); err != nil {
		return err
	}
	t.add(0, "oracle", "replay.warm", start, time.Since(start), len(b.stream))
	st := tn.Stats().Oracle
	if st.PathQueries > 0 {
		t.val["oracle.nexthop_rows_per_path"] = float64(st.RowsBuilt) / float64(st.PathQueries)
	}
	var hits0, miss0 uint64
	if st.RowCache != nil {
		hits0, miss0 = st.RowCache.Hits, st.RowCache.Misses
	}
	start = time.Now()
	for k := 0; time.Since(start) < b.seconds/4; k++ {
		if err := steady.replay(tn, b.stream, k*len(b.stream), (k+1)*len(b.stream)); err != nil {
			return err
		}
	}
	t.add(0, "oracle", "replay.steady", start, time.Since(start), len(steady[opDist])+len(steady[opBatch])+len(steady[opPath]))
	for k := opKind(0); k < numOps; k++ {
		t.val["oracle."+opNames[k]+"_us"] = p50(steady[k])
	}
	if !cold {
		return nil
	}
	if rc := tn.Stats().Oracle.RowCache; rc != nil {
		if n := rc.Hits + rc.Misses - hits0 - miss0; n > 0 {
			t.val["tier.row_hit_ratio"] = float64(rc.Hits-hits0) / float64(n)
		}
	}
	snap, err := dir.Load(tenant)
	if err != nil {
		return err
	}
	if err := t.storeLayer(b, snap); err != nil {
		return err
	}
	return t.tierLayer(b, dir, snap.Version)
}

// tierLayer opens the persisted snapshot as ccserve's cold tier does and
// reads the rows the stream's queries start from, timing each miss.
func (t *tracer) tierLayer(b *bench, dir *store.Dir, version uint64) error {
	r, err := tier.NewStore(dir).OpenCold(tenant, version, oracle.DefaultColdCacheRows)
	if err != nil {
		return err
	}
	defer r.Close()
	start := time.Now()
	if _, err := r.Graph(); err != nil {
		return err
	}
	d := time.Since(start)
	t.add(0, "tier", "Reader.Graph", start, d, 0)
	t.val["tier.graph_decode_ms"] = float64(d) / float64(time.Millisecond)
	var misses []time.Duration
	ctx := context.Background()
	start = time.Now()
	for _, req := range b.stream {
		for _, p := range req.pairs {
			before := r.Stats().Misses
			s0 := time.Now()
			if _, err := r.RowCtx(ctx, p.u); err != nil {
				return err
			}
			if r.Stats().Misses > before {
				misses = append(misses, time.Since(s0))
			}
		}
	}
	t.add(0, "tier", "Reader.Row", start, time.Since(start), len(misses))
	t.val["tier.row_miss_us"] = p50(misses)
	return nil
}

// patchLayers replays the run's deltas against an in-process exact tenant,
// persisting like ccserve -datadir, with a slice of the read stream between
// consecutive publishes.
func (t *tracer) patchLayers(b *bench, m *measured) error {
	dir, err := store.Open(filepath.Join(b.dir, "trace-patch"))
	if err != nil {
		return err
	}
	var repairs []time.Duration
	mgr := oracle.NewManager(oracle.ManagerConfig{
		Store: dir,
		OnRepair: func(_ string, _ uint64, elapsed time.Duration, err error) {
			if err == nil {
				repairs = append(repairs, elapsed)
			}
		},
	})
	defer mgr.Close()
	tn, err := mgr.Create(tenant, oracle.TenantConfig{Algorithm: cliqueapsp.AlgExact, Seed: b.algSeed})
	if err != nil {
		return err
	}
	ctx := context.Background()
	v, err := tn.SetGraph(b.base)
	if err == nil {
		err = tn.Wait(ctx, v)
	}
	if err != nil {
		return err
	}
	// Between publishes, as many reads as the HTTP reader completed per
	// delta, so the next-hop memo is invalidated at the same rate.
	readsPerDelta := 64
	if len(m.deltaList) > 0 {
		readsPerDelta = m.reads.queries() / len(m.deltaList)
	}
	var reads streamLog
	at := 0
	for _, d := range m.deltaList {
		start := time.Now()
		v, err := tn.ApplyDelta(cliqueapsp.GraphDelta{Edges: []cliqueapsp.EdgeDelta{
			{Op: cliqueapsp.DeltaReweight, U: d.u, V: d.v, W: d.new}}})
		if err == nil {
			err = tn.Wait(ctx, v)
		}
		if err != nil {
			return fmt.Errorf("in-process delta: %w", err)
		}
		t.add(0, "oracle", "ApplyDelta+Wait", start, time.Since(start), 0)
		if err := reads.replay(tn, b.stream, at, at+readsPerDelta); err != nil {
			return err
		}
		at += readsPerDelta
	}
	st := tn.Stats().Oracle
	t.val["oracle.repairs"] = float64(st.Repairs)
	t.val["oracle.repair_fallbacks"] = float64(st.RepairFallbacks)
	t.val["oracle.coalesced_deltas"] = float64(st.CoalescedDeltas)
	if n := st.Repairs + st.RepairFallbacks; n > 0 {
		t.val["oracle.repair_ratio"] = float64(st.Repairs) / float64(n)
	}
	if len(repairs) > 0 {
		t.val["oracle.repair_s"] = median(seconds(repairs))
	}
	if st.PathQueries > 0 {
		t.val["oracle.nexthop_rows_per_path"] = float64(st.RowsBuilt) / float64(st.PathQueries)
	}
	for k := opKind(0); k < numOps; k++ {
		t.val["oracle."+opNames[k]+"_us"] = p50(reads[k])
	}
	return nil
}

// flush writes the spans as JSON lines and prints each layer's busy and
// self time (a span's duration less the part its children cover).
func (t *tracer) flush() error {
	if err := os.MkdirAll(filepath.Dir(t.path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(t.path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	child := make(map[int64]int64)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
		if s.Parent != 0 {
			child[s.Parent] += s.Dur
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	busy, self := map[string]int64{}, map[string]int64{}
	for _, s := range t.spans {
		key := s.Layer + " " + strings.SplitN(s.Name, " ", 2)[0]
		busy[key] += s.Dur
		self[key] += s.Dur - child[s.ID]
	}
	keys := make([]string, 0, len(busy))
	for k := range busy {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprintf(os.Stderr, "e2ebench: %d spans written to %s\n", len(t.spans), t.path)
	for _, k := range keys {
		fmt.Fprintf(os.Stderr, "  %-48s busy %10.3f ms  self %10.3f ms\n", k,
			float64(busy[k])/1e6, float64(self[k])/1e6)
	}
	return nil
}
