// Command ccserve is a multi-tenant distance-oracle daemon: it holds an
// oracle.Manager hosting many named, independently versioned oracles over
// one cliqueapsp Engine and serves distance, batch and path queries over
// HTTP/JSON. Every tenant picks its own algorithm/accuracy tradeoff; every
// rebuild runs in the background while the previous snapshot keeps serving,
// and every response reports the snapshot version that answered it.
//
// The single-graph routes of earlier versions keep working unchanged — they
// are aliases of the /v1/graphs/{name}/* routes, bound to a pinned
// "default" tenant that exists from startup. Every route is one row of the
// route table in routes.go.
//
// Endpoints:
//
//	POST /v1/graph   upload a graph to the default tenant (JSON
//	                 {"n":…,"edges":[[u,v,w],…]} or the ccgen edge-list
//	                 format); ?wait=1 blocks until the rebuild finishes
//	GET  /v1/dist    ?u=0&v=3 — one distance (default tenant)
//	POST /v1/batch   {"pairs":[[0,1],[2,3],…]} — many distances, one snapshot
//	GET  /v1/path    ?u=0&v=3 — greedy next-hop route and its cost
//	GET  /v1/stats   default-tenant + HTTP counters, manager aggregate,
//	                 per-tenant breakdown (evictions included) and a
//	                 process section (uptime, goroutines, heap, GC)
//	GET  /healthz    200 once the default tenant serves; reports build
//	                 version and VCS revision
//	GET  /metrics    Prometheus text exposition: request counts and
//	                 latency histograms by route and status, per-tenant
//	                 outcome counters, build-phase histograms, manager /
//	                 row-cache / process gauges (admin-only under -keys)
//	GET  /debug/pprof/   net/http/pprof profiles (admin-only under -keys)
//	GET  /v1/traces      recent completed request/build traces, newest
//	                     first (admin-only under -keys)
//	GET  /v1/traces/{id} one trace as a nested span tree
//
//	GET    /v1/graphs                 list hosted graphs
//	POST   /v1/graphs                 create a tenant: {"name":…,
//	                                  "algorithm":…,"eps":…,"seed":…,
//	                                  "max_nodes":…}
//	GET    /v1/graphs/{name}          one tenant's summary
//	DELETE /v1/graphs/{name}          remove a tenant
//	POST   /v1/graphs/{name}/graph    upload that tenant's graph (?wait=1)
//	PATCH  /v1/graphs/{name}/edges    apply an edge delta to the current
//	                                  graph: {"edges":[{"op":"add"|"remove"|
//	                                  "reweight","u":…,"v":…,"w":…},…]};
//	                                  small deltas repair the published
//	                                  distances in place instead of running
//	                                  the full pipeline (?wait=1)
//	POST   /v1/graphs/{name}/promote  force a cold (disk-tier) tenant back
//	                                  into memory (admin-only under -keys)
//	GET    /v1/graphs/{name}/dist     ?u=0&v=3
//	POST   /v1/graphs/{name}/batch    {"pairs":[…]}
//	GET    /v1/graphs/{name}/path     ?u=0&v=3
//	GET    /v1/graphs/{name}/stats    that tenant's full counters
//
// Admission is bounded by -maxgraphs (hosted tenants) and -maxtotaln
// (summed nodes across graphs); when full, the least-recently-used idle
// tenant is evicted — observable in /v1/stats under manager.evictions.
//
// With -datadir the fleet is durable: every published snapshot is persisted
// (atomic rename, checksummed, newest K versions kept), the whole fleet is
// restored at startup before any rebuild runs, and an evicted tenant is
// rehydrated from disk on its next access instead of lost. Restore and
// rehydration activity is visible in /v1/stats under manager.restored,
// manager.cold_hits, manager.persists and friends.
//
// Persistence also enables memory-tiered serving (-coldcache, on by
// default): when the -maxtotaln budget fills, idle tenants are DEMOTED to
// the cold tier — they stay hosted and keep answering, reading snapshot
// rows straight off disk through a bounded hot-row cache (-coldcache rows
// of 8n bytes each) — instead of being evicted; a restart with more
// persisted state than budget likewise brings tenants up cold with zero
// full-snapshot decodes. A tenant's tier shows as "hot"/"cold" in
// /v1/graphs and its stats; demotions, cold serves and row-cache traffic
// appear in /v1/stats under manager.demotions, manager.cold_serves and
// manager.row_cache_*.
//
// With -keys the server authenticates every route except /healthz via
// "Authorization: Bearer <key>": the file's admin key may do everything
// (and alone may create/delete tenants), a per-tenant key only its own
// tenant's GET /v1/graphs/{name} and /v1/graphs/{name}/dist|batch|path|
// graph|edges|stats routes (promote and DELETE are admin-only; a "default"
// key also grants the legacy /v1/dist|batch|path|graph routes). The file
// may also declare per-tenant quotas (requests/sec and
// answers/sec token buckets) enforced with 429 + Retry-After; SIGHUP
// reloads the file without a restart. Without -keys the server stays as
// open as earlier versions. Throttle counts appear in /v1/stats under
// manager.throttled and per tenant. /metrics and /debug/pprof/ are not
// tenant-scoped routes, so under -keys only the admin key reaches them.
//
// Logging is structured (log/slog, text format): one completion line per
// request with route, tenant, status, bytes, duration and a request ID.
// The ID is taken from the client's X-Request-Id (if printable ASCII,
// <=128 bytes) or minted, and is always echoed on the response.
// Requests slower than -slowquery log at warning level. -loglevel
// picks the floor (debug|info|warn|error); -version prints build
// metadata and exits.
//
// Tracing: -tracesample picks the fraction of requests traced end to end
// (handler, oracle, disk-tier and build spans); slow (>= -slowquery) and
// 5xx requests are captured even when unsampled. Incoming W3C traceparent
// headers are honored — a sampled parent forces tracing and the server
// joins the caller's trace — and every sampled response carries a
// traceparent header back. Completed traces land in a bounded in-memory
// ring (-tracebuf) inspected via /v1/traces; slow-query warnings carry
// the trace ID in a "trace" field for direct lookup.
//
// Example:
//
//	ccserve -addr 127.0.0.1:8080 -alg constant -eps 0.1
//	curl -s -XPOST -H 'Content-Type: application/json' \
//	     -d '{"name":"roads","algorithm":"tradeoff"}' localhost:8080/v1/graphs
//	curl -s -XPOST -H 'Content-Type: application/json' \
//	     -d '{"n":4,"edges":[[0,1,3],[1,2,1],[2,3,2]]}' \
//	     'localhost:8080/v1/graphs/roads/graph?wait=1'
//	curl -s 'localhost:8080/v1/graphs/roads/dist?u=0&v=3'
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	cliqueapsp "github.com/congestedclique/cliqueapsp"
	"github.com/congestedclique/cliqueapsp/oracle"
	"github.com/congestedclique/cliqueapsp/store"
)

func main() {
	var (
		addr         = flag.String("addr", "127.0.0.1:8080", "listen address")
		alg          = flag.String("alg", "constant", "default algorithm rebuilds run (see ccapsp -list)")
		eps          = flag.Float64("eps", 0.1, "accuracy slack of the scaling stages")
		t            = flag.Int("t", 1, "tradeoff parameter (alg=tradeoff)")
		det          = flag.Bool("det", false, "deterministic rebuilds (greedy hitting sets)")
		seed         = flag.Int64("seed", 0, "pin the rebuild seed (0 = engine-derived per rebuild)")
		graphFile    = flag.String("graph", "", "preload the default tenant's graph (ccgen format) before serving")
		dataDir      = flag.String("datadir", "", "persist published snapshots here and restore the fleet on start (empty = no persistence)")
		coldCache    = flag.Int("coldcache", 64, "hot-row cache rows per cold (disk-tier) tenant; with -datadir, memory pressure demotes idle tenants to serving rows from disk through this cache instead of evicting them (0 = tiering off)")
		keysFile     = flag.String("keys", "", "JSON key file enabling auth: admin + per-tenant Bearer keys and quotas; SIGHUP reloads it (empty = open server)")
		keepVers     = flag.Int("keepversions", 2, "snapshot versions kept per tenant in -datadir before GC")
		maxN         = flag.Int("maxn", 4096, "largest accepted graph (nodes)")
		maxBatch     = flag.Int("maxbatch", 100000, "most pairs per batch query")
		maxBody      = flag.Int64("maxbody", 32<<20, "request body limit in bytes")
		maxGraphs    = flag.Int("maxgraphs", 64, "most hosted graphs; LRU-evicts idle tenants when full (0 = unlimited)")
		maxTotalN    = flag.Int("maxtotaln", 65536, "summed node budget across all hosted graphs (0 = unlimited)")
		buildPar     = flag.Int("buildpar", 0, "concurrent tenant rebuilds; extra builds queue at the admission gate (0 = NumCPU, negative = unlimited)")
		kernelPar    = flag.Int("kernelpar", 0, "shared-pool workers each rebuild's min-plus kernels may use (0 = whole pool)")
		buildTimeout = flag.Duration("buildtimeout", 0, "abort a rebuild after this duration (0 = no limit)")
		repairFrac   = flag.Float64("repairfrac", 0, "edge-delta repairs whose dirty node set exceeds this fraction of n fall back to a full rebuild (0 = default 0.25, negative = always rebuild)")
		drainTimeout = flag.Duration("draintimeout", 10*time.Second, "graceful-shutdown drain window")
		slowQuery    = flag.Duration("slowquery", time.Second, "log requests slower than this at warning level (0 = off)")
		traceSample  = flag.Float64("tracesample", 0, "fraction of requests traced end to end, 0..1 (slow and 5xx requests are always captured)")
		traceBuf     = flag.Int("tracebuf", 256, "completed traces retained in memory for /v1/traces")
		logLevel     = flag.String("loglevel", "info", "lowest level logged: debug, info, warn or error")
		showVersion  = flag.Bool("version", false, "print build version and revision, then exit")
	)
	flag.Parse()

	version, revision := buildInfo()
	if *showVersion {
		fmt.Printf("ccserve %s (revision %s, %s)\n", version, revision, runtime.Version())
		return
	}

	var level slog.Level
	if err := level.UnmarshalText([]byte(*logLevel)); err != nil {
		fmt.Fprintf(os.Stderr, "ccserve: bad -loglevel %q: want debug, info, warn or error\n", *logLevel)
		os.Exit(2)
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level}))
	fatal := func(err error) {
		logger.Error("fatal", "err", err)
		os.Exit(1)
	}
	logger.Info("build_info", "version", version, "revision", revision, "go", runtime.Version())

	runOpts := []cliqueapsp.RunOption{
		cliqueapsp.WithT(*t),
		cliqueapsp.WithDeterministicRun(*det),
	}
	if *seed != 0 {
		runOpts = append(runOpts, cliqueapsp.WithSeed(*seed))
	}
	var snapshots *store.Dir
	if *dataDir != "" {
		var err error
		snapshots, err = store.Open(*dataDir, store.KeepVersions(*keepVers))
		if err != nil {
			fatal(err)
		}
	}
	var keys *keyring
	if *keysFile != "" {
		var err error
		keys, err = loadKeyring(*keysFile, logger)
		if err != nil {
			fatal(err)
		}
	}

	handler, err := newServer(serverConfig{
		lim:           limits{maxNodes: *maxN, maxBatch: *maxBatch, maxBody: *maxBody},
		maxGraphs:     *maxGraphs,
		maxTotalNodes: *maxTotalN,
		snapshots:     snapshots,
		coldCacheRows: *coldCache,
		buildPar:      *buildPar,
		kernelPar:     *kernelPar,
		keys:          keys,
		base: oracle.Config{
			Algorithm:          cliqueapsp.Algorithm(*alg),
			Eps:                *eps,
			RunOptions:         runOpts,
			BuildTimeout:       *buildTimeout,
			RepairMaxDirtyFrac: *repairFrac,
		},
		log:         logger,
		slowQuery:   *slowQuery,
		traceSample: *traceSample,
		traceBuf:    *traceBuf,
	})
	if err != nil {
		fatal(err)
	}
	defer handler.Close()

	if *graphFile != "" {
		f, err := os.Open(*graphFile)
		if err != nil {
			fatal(err)
		}
		g, err := cliqueapsp.ReadGraph(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fatal(err)
		}
		v, err := handler.def.SetGraph(g)
		if err != nil {
			fatal(err)
		}
		logger.Info("graph preloaded", "file", *graphFile, "n", g.N(), "m", g.NumEdges(), "version", v)
	}

	srv := &http.Server{
		Addr:              *addr,
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
	}

	// SIGHUP re-reads the key file in place: rotated keys and updated
	// quotas land without dropping a single snapshot or connection.
	if keys != nil {
		hupc := make(chan os.Signal, 1)
		signal.Notify(hupc, syscall.SIGHUP)
		go func() {
			for range hupc {
				logger.Info("SIGHUP: reloading key file", "path", *keysFile)
				handler.ReloadKeys()
			}
		}()
	}

	errc := make(chan error, 1)
	go func() {
		persist := "off"
		if *dataDir != "" {
			persist = *dataDir
		}
		auth := "open"
		if keys != nil {
			auth = *keysFile
		}
		logger.Info("serving", "addr", *addr, "alg", *alg, "maxn", *maxN,
			"maxbatch", *maxBatch, "maxgraphs", *maxGraphs, "maxtotaln", *maxTotalN,
			"buildpar", *buildPar, "kernelpar", *kernelPar,
			"datadir", persist, "coldcache", *coldCache, "keys", auth,
			"slowquery", *slowQuery, "tracesample", *traceSample)
		errc <- srv.ListenAndServe()
	}()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		fatal(err)
	case sig := <-sigc:
		logger.Info("draining", "signal", sig.String(), "window", *drainTimeout)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		logger.Warn("shutdown", "err", err)
	}
	handler.Close()
	logger.Info("bye")
}
