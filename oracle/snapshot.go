package oracle

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	cliqueapsp "github.com/congestedclique/cliqueapsp"
	"github.com/congestedclique/cliqueapsp/tier"
)

// snapshot is one published build: the graph, the engine result, and lazily
// materialized routing state. Everything except the memoization slots is
// immutable after publication.
//
// A snapshot comes in two tiers. A HOT snapshot holds the full n×n estimate
// resident (res.Distances). A COLD snapshot (cold != nil) holds no distance
// rows at all: every row read goes through a tier.Reader — one pread behind
// a bounded hot-row LRU — and the graph itself decodes lazily from the
// snapshot file only if a Path query needs it. The tiers differ only in
// distRow and graph; answers, next-hop rows, the router and path walks are
// built on those two calls alone, so cold answers are identical to hot
// ones, they just cost a disk read on a cache miss.
type snapshot struct {
	version  uint64
	builtAt  time.Time
	buildDur time.Duration
	phases   []PhaseTiming      // per-phase build breakdown; nil for restores
	g        *cliqueapsp.Graph  // nil when cold: the graph decodes lazily
	res      *cliqueapsp.Result // cold: provenance only, Distances nil
	n        int
	cnt      *counters
	cold     *tier.Reader // non-nil = rows live on disk behind the row cache

	// Next-hop memo: rows[u] is read lock-free once published. A miss goes
	// through one single-flight build per row (flights, under nhMu); a
	// failed build — a cold row read — is not stored, so a transient error
	// never poisons the row. Stored rows are immutable, which lets a
	// repaired successor share them (newRepairedSnapshot).
	rows    []atomic.Pointer[[]int]
	nhMu    sync.Mutex
	flights map[int]*nhFlight

	// The greedy router, built on the first Path; a failed cold graph
	// decode is retried by the next one.
	rtMu sync.Mutex
	rt   atomic.Pointer[cliqueapsp.GreedyRouter]
}

// nhFlight is one in-progress next-hop row build; done closes after row/err
// are set.
type nhFlight struct {
	done chan struct{}
	row  []int
	err  error
}

func newSnapshot(version uint64, g *cliqueapsp.Graph, res *cliqueapsp.Result, cnt *counters) *snapshot {
	return &snapshot{
		version: version,
		builtAt: time.Now(),
		g:       g,
		res:     res,
		n:       g.N(),
		cnt:     cnt,
		rows:    make([]atomic.Pointer[[]int], g.N()),
	}
}

// newRepairedSnapshot is newSnapshot plus next-hop carryover: rows the base
// snapshot already materialized stay valid on the successor wherever the
// repair proved them untouched (reuse[u]), so a patched tenant does not
// re-derive its hot routing state.
func newRepairedSnapshot(version uint64, g *cliqueapsp.Graph, res *cliqueapsp.Result, cnt *counters, base *snapshot, reuse []bool) *snapshot {
	s := newSnapshot(version, g, res, cnt)
	if base == nil || base.n != s.n || len(reuse) != s.n {
		return s
	}
	for u, ok := range reuse {
		if ok {
			s.rows[u].Store(base.rows[u].Load())
		}
	}
	return s
}

// newColdSnapshot wraps a tier.Reader as a serving snapshot: provenance
// comes from the reader's row index, rows come off disk on demand. The
// reader is owned by the snapshot from here on; it is never explicitly
// closed while the snapshot may serve (queries racing a swap keep their
// handle), the file closes when the last reference is collected.
func newColdSnapshot(r *tier.Reader, cnt *counters) *snapshot {
	ix := r.Index()
	return &snapshot{
		version: ix.Version,
		builtAt: time.Now(),
		res: &cliqueapsp.Result{
			Algorithm:   cliqueapsp.Algorithm(ix.Algorithm),
			FactorBound: ix.FactorBound,
			Seed:        ix.Seed,
		},
		n:    ix.N,
		cnt:  cnt,
		cold: r,
		rows: make([]atomic.Pointer[[]int], ix.N),
	}
}

func (s *snapshot) check(u, v int) error {
	if u < 0 || u >= s.n || v < 0 || v >= s.n {
		return fmt.Errorf("oracle: pair (%d,%d) out of range for n=%d (snapshot v%d)", u, v, s.n, s.version)
	}
	return nil
}

// distRow returns node x's distance row (shared, read-only). Hot snapshots
// cannot fail; cold ones surface read failures wrapped in ErrColdRead. ctx
// only carries the active trace span (if the request is sampled); it does
// not cancel the read.
func (s *snapshot) distRow(ctx context.Context, x int) ([]int64, error) {
	if s.cold == nil {
		return s.res.Distances.Row(x), nil
	}
	row, err := s.cold.RowCtx(ctx, x)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrColdRead, err)
	}
	return row, nil
}

// graph returns the snapshot's input graph: resident when hot, decoded
// lazily (and retried on failure) when cold.
func (s *snapshot) graph(ctx context.Context) (*cliqueapsp.Graph, error) {
	if s.cold == nil {
		return s.g, nil
	}
	g, err := s.cold.GraphCtx(ctx)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrColdRead, err)
	}
	return g, nil
}

// answer resolves one pair.
func (s *snapshot) answer(ctx context.Context, u, v int) (Answer, error) {
	a := Answer{U: u, V: v, Distance: Unreachable}
	row, err := s.distRow(ctx, u)
	if err != nil {
		return a, err
	}
	if d := row[v]; d < cliqueapsp.Inf {
		a.Distance, a.Reachable = d, true
	}
	return a, nil
}

// nextHop returns node u's memoized next-hop row, building it on first use
// from the distance rows of u's neighbors (on a cold snapshot, one read per
// neighbor, mostly absorbed by the row cache).
func (s *snapshot) nextHop(ctx context.Context, u int) ([]int, error) {
	if r := s.rows[u].Load(); r != nil {
		s.cnt.rowHits.Add(1)
		return *r, nil
	}
	s.nhMu.Lock()
	if r := s.rows[u].Load(); r != nil {
		s.nhMu.Unlock()
		s.cnt.rowHits.Add(1)
		return *r, nil
	}
	if fl, ok := s.flights[u]; ok {
		s.nhMu.Unlock()
		<-fl.done
		if fl.err == nil {
			s.cnt.rowHits.Add(1)
		}
		return fl.row, fl.err
	}
	if s.flights == nil {
		s.flights = make(map[int]*nhFlight)
	}
	fl := &nhFlight{done: make(chan struct{})}
	s.flights[u] = fl
	s.nhMu.Unlock()

	row, err := s.buildNextHop(ctx, u)
	if err == nil {
		s.rows[u].Store(&row)
		s.cnt.rowsBuilt.Add(1)
	}
	fl.row, fl.err = row, err
	s.nhMu.Lock()
	delete(s.flights, u)
	s.nhMu.Unlock()
	close(fl.done)
	return fl.row, fl.err
}

func (s *snapshot) buildNextHop(ctx context.Context, u int) ([]int, error) {
	g, err := s.graph(ctx)
	if err != nil {
		return nil, err
	}
	// The closure keeps the caller's trace context flowing into the
	// per-neighbor distance-row reads.
	return cliqueapsp.NextHopRowFrom(g, u, func(x int) ([]int64, error) { return s.distRow(ctx, x) })
}

// router returns the snapshot's greedy router, building it on first use.
func (s *snapshot) router(ctx context.Context) (*cliqueapsp.GreedyRouter, error) {
	if r := s.rt.Load(); r != nil {
		return r, nil
	}
	s.rtMu.Lock()
	defer s.rtMu.Unlock()
	if r := s.rt.Load(); r != nil {
		return r, nil
	}
	g, err := s.graph(ctx)
	if err != nil {
		return nil, err
	}
	r := cliqueapsp.NewGreedyRouter(g, nil)
	s.rt.Store(r)
	return r, nil
}

// path routes greedily from u to v over memoized next-hop rows. A row read
// failing mid-route surfaces as the ErrColdRead it is, not as ErrNoRoute.
func (s *snapshot) path(ctx context.Context, u, v int) (PathResult, error) {
	res := PathResult{U: u, V: v, Cost: Unreachable, Version: s.version}
	a, err := s.answer(ctx, u, v)
	if err != nil || !a.Reachable {
		return res, err
	}
	rt, err := s.router(ctx)
	if err != nil {
		return res, err
	}
	path, cost, err := rt.RouteVia(u, v, func(src int) ([]int, error) { return s.nextHop(ctx, src) })
	if err != nil {
		// ErrNoRoute on a reachable pair means greedy forwarding looped or
		// dead-ended on the approximate estimate — surfaced, not guessed.
		return res, fmt.Errorf("oracle: snapshot v%d: %w", s.version, err)
	}
	res.Reachable, res.Path, res.Cost = true, path, cost
	return res, nil
}

// graphM returns the snapshot's edge count without forcing a cold graph
// decode (the row index records it).
func (s *snapshot) graphM() int {
	if s.cold != nil {
		return s.cold.Index().M
	}
	return s.g.NumEdges()
}
