package oracle

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	cliqueapsp "github.com/congestedclique/cliqueapsp"
	"github.com/congestedclique/cliqueapsp/obs/trace"
)

// TenantConfig is one tenant's overrides over ManagerConfig.Base — the
// per-tenant algorithm/accuracy/seed choice is the point of multi-tenancy:
// workloads that want fewer rounds pick a coarser factor, workloads that
// want tighter distances pay for them.
type TenantConfig struct {
	// Algorithm overrides Base.Algorithm when non-empty.
	Algorithm cliqueapsp.Algorithm
	// Eps overrides Base.Eps (the accuracy slack) when > 0.
	Eps float64
	// Seed pins the rebuild seed when != 0 (appended as WithSeed).
	Seed int64
	// RunOptions are appended after Base.RunOptions and the Eps/Seed
	// overrides, so they win ties.
	RunOptions []cliqueapsp.RunOption
	// BuildTimeout overrides Base.BuildTimeout when > 0.
	BuildTimeout time.Duration
	// Quota bounds the tenant's query traffic (zero = unlimited), enforced
	// in Tenant.Dist/Batch/Path: a rejected call returns a *QuotaError
	// (matching ErrQuotaExceeded) carrying the retry delay. Like the rest
	// of the config it is remembered across eviction, so a rehydrated
	// tenant comes back throttled exactly as it left. Replaceable at
	// runtime with Tenant.SetQuota.
	Quota Quota
	// Pinned exempts the tenant from eviction (it still counts against the
	// budgets). The serving default tenant of a daemon is the typical pin.
	Pinned bool
	// AdoptPersisted, on a store-backed Manager, makes Create leave any
	// persisted snapshots under this name in place — to be served again by
	// RestoreAll or rehydration — and reserves versions above them so new
	// builds still supersede the files. The daemon's recreated-every-boot
	// default tenant wants this. When false (the default), creating a
	// tenant REPLACES any previous persisted incarnation: its snapshot
	// files are removed, so stale data can never resurrect under a name
	// the caller just configured afresh.
	AdoptPersisted bool
}

// Tenant is one named oracle inside a Manager. Query methods mirror
// Oracle's and additionally refresh the tenant's LRU recency.
type Tenant struct {
	name    string
	m       *Manager
	o       *Oracle
	cfg     TenantConfig
	created time.Time

	// Lifecycle, guarded by m.mu. onDisk records that snapshots are
	// persisted under the name (what an eviction keeps). done is non-nil
	// while the entry is in transition — loading, closing, or a Create
	// wiping the previous incarnation's files — and closes when it settles,
	// err holding a failed load's error.
	state  tenantState
	onDisk bool
	done   chan struct{}
	err    error

	lastUsed  atomic.Uint64           // manager clock tick of the last touch
	nodes     atomic.Int64            // admitted node budget of the registered graph
	lim       atomic.Pointer[limiter] // nil = unlimited; swapped whole by SetQuota
	throttled atomic.Uint64           // queries this tenant had rejected by quota
	setMu     sync.Mutex              // serializes admission + SetGraph per tenant
}

// TenantStats is one tenant's Stats tagged with its identity.
type TenantStats struct {
	Name   string        `json:"name"`
	Pinned bool          `json:"pinned"`
	Nodes  int           `json:"nodes"`
	Age    time.Duration `json:"age_ns"`
	// Tier mirrors the oracle's serving tier ("hot", "cold", or "" before
	// the first snapshot). A cold tenant's Nodes is its cache charge
	// (min(ColdCacheRows, n)), not its graph size.
	Tier string `json:"tier,omitempty"`
	// Quota echoes the enforced quota (absent = unlimited); Throttled
	// counts this tenant's queries it rejected.
	Quota     *Quota `json:"quota,omitempty"`
	Throttled uint64 `json:"throttled"`
	Oracle    Stats  `json:"oracle"`
}

// newTenant returns an unlisted tenant in state st with config tc.
func (m *Manager) newTenant(name string, tc TenantConfig, st tenantState) *Tenant {
	t := &Tenant{name: name, m: m, cfg: tc, created: time.Now(), state: st}
	t.lim.Store(newLimiter(tc.Quota, nil))
	t.lastUsed.Store(m.tick.Add(1))
	return t
}

func (t *Tenant) touch() { t.lastUsed.Store(t.m.tick.Add(1)) }

// Name returns the tenant's name.
func (t *Tenant) Name() string { return t.name }

// Pinned reports whether the tenant is exempt from eviction.
func (t *Tenant) Pinned() bool { return t.cfg.Pinned }

// Evicted reports whether the tenant was removed by LRU eviction (its
// last snapshot still answers queries on this handle). A handle is closing
// only while its eviction drains.
func (t *Tenant) Evicted() bool {
	t.m.mu.Lock()
	defer t.m.mu.Unlock()
	return t.state == evicted || t.state == closing
}

// SetGraph registers g for this tenant through the manager's admission
// policy: the tenant's node budget is charged for g, evicting idle tenants
// if needed (see Oracle.SetGraph for build semantics).
func (t *Tenant) SetGraph(g *cliqueapsp.Graph) (uint64, error) {
	t.touch()
	if g == nil {
		return 0, fmt.Errorf("oracle: nil graph")
	}
	// Serialize per tenant so concurrent SetGraph calls can't interleave
	// their budget deltas (the oracle itself coalesces rapid updates).
	t.setMu.Lock()
	defer t.setMu.Unlock()
	prev, err := t.m.admitNodes(t, g.N())
	if err != nil {
		return 0, err
	}
	v, err := t.o.SetGraph(g)
	if err != nil {
		// Roll back the admission: the oracle rejected the graph (closed).
		t.m.rollbackNodes(t, prev)
		return 0, err
	}
	return v, nil
}

// ApplyDelta validates and applies a batch of edge deltas to this tenant's
// newest graph and schedules the successor snapshot (see Oracle.ApplyDelta
// for repair-vs-rebuild semantics). The delta is charged one call against
// the tenant's quota — refunded if it is rejected — and refreshes LRU
// recency like any other accepted traffic. No node re-admission is needed:
// deltas change edges, never the node count the budget charges for.
func (t *Tenant) ApplyDelta(d cliqueapsp.GraphDelta) (uint64, error) {
	return t.ApplyDeltaCtx(context.Background(), d)
}

// ApplyDeltaCtx is ApplyDelta with a caller context; a sampled request's
// trace gains a quota-throttle event on rejection.
func (t *Tenant) ApplyDeltaCtx(ctx context.Context, d cliqueapsp.GraphDelta) (uint64, error) {
	return metered(ctx, t, 1, func() (uint64, error) { return t.o.ApplyDelta(d) })
}

// Wait blocks until the tenant serves version ≥ version (see Oracle.Wait).
func (t *Tenant) Wait(ctx context.Context, version uint64) error { return t.o.Wait(ctx, version) }

// Ready reports whether the tenant has a serving snapshot.
func (t *Tenant) Ready() bool { return t.o.Ready() }

// Version returns the tenant's serving snapshot version.
func (t *Tenant) Version() uint64 { return t.o.Version() }

// metered runs one call of t charged answers tokens against its quota — a
// query producing that many pairs, or one delta. A rejected call fails
// with a *QuotaError, is counted, and annotates ctx's trace span (a 429
// inside a sampled trace must say which bucket ran dry); it does not
// refresh LRU recency, which tracks served traffic, so a tenant hammering
// past its quota gains no eviction protection over well-behaved ones. The
// quota meters answered traffic and accepted work: a call that fails (not
// ready, out-of-range pair, rejected delta) gets its tokens back.
func metered[R any](ctx context.Context, t *Tenant, answers int, call func() (R, error)) (R, error) {
	lim := t.lim.Load()
	if wait, resource, ok := lim.allow(answers); !ok {
		t.throttled.Add(1)
		t.m.throttled.Add(1)
		if sp := trace.FromContext(ctx); sp != nil {
			sp.Event("quota.throttled")
			sp.SetAttr("quota.resource", resource)
			sp.SetAttr("quota.retry_after", wait.String())
		}
		var zero R
		return zero, &QuotaError{Tenant: t.name, Resource: resource, RetryAfter: wait}
	}
	t.touch()
	res, err := call()
	if err != nil {
		lim.refundCall(answers)
	}
	return res, err
}

// SetQuota replaces the tenant's quota at runtime (a zero q removes it).
// The new buckets start full, and the change is remembered across eviction
// like a creation-time Quota.
func (t *Tenant) SetQuota(q Quota) error {
	if err := q.Validate(); err != nil {
		return err
	}
	// cfg.Quota is copied under m.mu when the tenant is evicted, so the
	// remembered config always reflects the latest SetQuota.
	t.m.mu.Lock()
	t.cfg.Quota = q
	t.m.mu.Unlock()
	t.lim.Store(newLimiter(q, nil))
	return nil
}

// Quota returns the quota currently enforced (zero = unlimited).
func (t *Tenant) Quota() Quota {
	if l := t.lim.Load(); l != nil {
		return l.q
	}
	return Quota{}
}

// Dist answers one distance query (see Oracle.Dist).
func (t *Tenant) Dist(u, v int) (DistResult, error) {
	return t.DistCtx(context.Background(), u, v)
}

// DistCtx is Dist with a caller context; a sampled request's trace gains
// the oracle/tier child spans and a quota-throttle event on rejection.
func (t *Tenant) DistCtx(ctx context.Context, u, v int) (DistResult, error) {
	return metered(ctx, t, 1, func() (DistResult, error) { return t.o.DistCtx(ctx, u, v) })
}

// Batch answers many pairs from one snapshot (see Oracle.Batch). The whole
// batch is charged against the answer quota up front — len(pairs) answer
// tokens — so batching cannot launder load past a per-answer budget.
func (t *Tenant) Batch(pairs []Pair) (BatchResult, error) {
	return t.BatchCtx(context.Background(), pairs)
}

// BatchCtx is Batch with a caller context; see DistCtx.
func (t *Tenant) BatchCtx(ctx context.Context, pairs []Pair) (BatchResult, error) {
	return metered(ctx, t, len(pairs), func() (BatchResult, error) { return t.o.BatchCtx(ctx, pairs) })
}

// Path answers one greedy-routing query (see Oracle.Path).
func (t *Tenant) Path(u, v int) (PathResult, error) {
	return t.PathCtx(context.Background(), u, v)
}

// PathCtx is Path with a caller context; see DistCtx.
func (t *Tenant) PathCtx(ctx context.Context, u, v int) (PathResult, error) {
	return metered(ctx, t, 1, func() (PathResult, error) { return t.o.PathCtx(ctx, u, v) })
}

// Stats returns the tenant's oracle counters tagged with its identity.
func (t *Tenant) Stats() TenantStats {
	ts := TenantStats{
		Name:      t.name,
		Pinned:    t.cfg.Pinned,
		Nodes:     int(t.nodes.Load()),
		Age:       time.Since(t.created),
		Throttled: t.throttled.Load(),
		Oracle:    t.o.Stats(),
	}
	ts.Tier = ts.Oracle.Tier
	// Read through the limiter, not t.cfg: the limiter pointer is atomic
	// while cfg.Quota is only synchronized with eviction's copy.
	if l := t.lim.Load(); l != nil {
		q := l.q
		ts.Quota = &q
	}
	return ts
}
