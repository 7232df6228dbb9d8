package oracle

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	cliqueapsp "github.com/congestedclique/cliqueapsp"
	"github.com/congestedclique/cliqueapsp/internal/sched"
	"github.com/congestedclique/cliqueapsp/store"
	"github.com/congestedclique/cliqueapsp/tier"
)

// DefaultColdCacheRows is the per-tenant hot-row cache bound used when
// ManagerConfig.ColdCacheRows is zero: 64 rows of 8·n bytes each — half a
// megabyte at n=1024, next to the 8 MB a hot tenant of that size holds.
const DefaultColdCacheRows = 64

var (
	// ErrTenantExists is returned by Create when the name is taken.
	ErrTenantExists = errors.New("oracle: tenant already exists")
	// ErrTenantNotFound is returned when no tenant has the requested name,
	// including tenants that have been deleted or evicted.
	ErrTenantNotFound = errors.New("oracle: tenant not found")
	// ErrOverCapacity is returned when admission would exceed MaxGraphs or
	// MaxTotalNodes and no idle tenant can be evicted to make room.
	ErrOverCapacity = errors.New("oracle: over capacity")
)

// ManagerConfig configures a Manager. The zero value hosts an unbounded
// number of tenants over a shared private engine.
type ManagerConfig struct {
	// MaxGraphs caps the number of hosted tenants (0 = unlimited). Creating
	// one more evicts the least-recently-used idle, unpinned tenant.
	MaxGraphs int
	// MaxTotalNodes bounds the summed node counts of all registered graphs
	// (0 = unlimited) — the serving state is Θ(n²) per tenant, so node
	// admission is the memory knob. Registering a graph that would exceed
	// the budget evicts idle, unpinned tenants in LRU order until it fits.
	MaxTotalNodes int
	// Base is the Config template every tenant starts from; TenantConfig
	// overrides are applied on top. A nil Base.Engine is replaced by one
	// engine shared across all tenants (the Engine is concurrency-safe, so
	// tenants never need one each).
	Base Config
	// OnEvict, when non-nil, observes every eviction by tenant name. Called
	// after the tenant has been removed from the table, concurrently with
	// its drain.
	OnEvict func(name string)
	// OnRebuild, when non-nil, observes every tenant's completed build
	// attempts, tagged with the tenant name. Per-tenant Config.OnRebuild
	// hooks still fire.
	OnRebuild func(name string, version uint64, elapsed time.Duration, err error)
	// OnRepair, when non-nil, observes every tenant's completed incremental
	// repairs — publishes that patched the previous distances instead of
	// running the engine — tagged with the tenant name. Per-tenant
	// Config.OnRepair hooks still fire.
	OnRepair func(name string, version uint64, elapsed time.Duration, err error)
	// OnPhase, when non-nil, observes every tenant's per-phase build timing,
	// tagged with the tenant name (see Config.OnPhase). Per-tenant
	// Config.OnPhase hooks still fire.
	OnPhase func(name, phase string, d time.Duration)
	// Store, when non-nil, makes the fleet durable: every snapshot a tenant
	// publishes is saved under the tenant's name, Get rehydrates evicted
	// tenants from their newest saved snapshot instead of reporting them
	// lost, RestoreAll brings the whole persisted fleet up at boot, and
	// Delete removes the tenant's saved snapshots along with the tenant.
	Store SnapshotStore
	// OnPersist, when non-nil, observes every snapshot save (called from the
	// tenant's build goroutine with the persisted version and nil or the
	// save error) and any failure to delete a tenant's saved snapshots
	// (version 0).
	OnPersist func(name string, version uint64, err error)
	// Cold, when non-nil (alongside Store), enables tiered serving:
	// node-budget evictions DEMOTE idle persisted tenants to cold
	// (disk-backed) serving instead of removing them, and restores or
	// rehydrations without budget headroom come up cold — zero O(n²)
	// decodes — instead of evicting their way in hot.
	Cold ColdOpener
	// ColdCacheRows bounds every cold tenant's hot-row cache in rows (each
	// row is 8·n bytes); 0 means DefaultColdCacheRows. It is also the node
	// budget a cold tenant is charged — min(ColdCacheRows, n) instead of n —
	// because resident rows, not graph size, are what a cold tenant keeps
	// in memory.
	ColdCacheRows int
	// BuildConcurrency caps how many tenant builds run at once across the
	// whole fleet (0 = unlimited). Builds over the cap queue FIFO-ish at the
	// admission gate; while queued, a tenant's uploads keep coalescing, so
	// the build that eventually runs uses the newest graph. Queue depth and
	// cumulative wait are reported by Stats (BuildsQueued, BuildWaitNS) —
	// with kernel parallelism bounded by the shared pool, this is the knob
	// that stops k rebuilding tenants from thrashing one machine.
	BuildConcurrency int
}

// ColdOpener opens one persisted snapshot version for disk-tier serving;
// *tier.Store (the store.Dir adapter) is the canonical implementation.
type ColdOpener interface {
	OpenCold(tenant string, version uint64, cacheRows int) (*tier.Reader, error)
}

// SnapshotStore is the persistence surface a Manager drives; *store.Dir is
// the canonical implementation. Save and Load move whole snapshots for one
// tenant, Versions is the cheap per-tenant probe (ascending persisted
// versions; empty = nothing persisted), Tenants lists every persisted
// tenant for RestoreAll, and Delete forgets one tenant's snapshots.
type SnapshotStore interface {
	Save(tenant string, s *store.Snapshot) error
	Load(tenant string) (*store.Snapshot, error)
	Versions(tenant string) ([]uint64, error)
	Tenants() ([]string, error)
	Delete(tenant string) error
}

// Manager hosts many named, independently versioned Oracles behind one
// admission policy. All methods are safe for concurrent use. Queries run on
// Tenant handles resolved with Get; a handle that loses its tenant to
// Delete or eviction keeps answering from the last published snapshot (the
// underlying Oracle is closed, not freed), so readers never observe a
// half-torn-down oracle.
//
// Every name moves through one lifecycle, and every transition happens
// under mu on the name's entry in the tenant table (no entry = absent):
//
//	absent ──Create──────────────────────────────▶ serving {hot ⇄ cold}
//	absent / evicted ──Get, RestoreAll──▶ loading ──▶ serving {hot ⇄ cold}
//	loading ──load failed──▶ the state it came from
//	serving ──evict──▶ closing ──▶ evicted (snapshots on disk) or absent
//	any ──Delete──▶ closing ──▶ absent
//
// A serving tenant's tier is its snapshot's, swapped atomically inside its
// oracle: node pressure demotes it to cold, Promote loads it back hot.
type Manager struct {
	cfg  ManagerConfig
	eng  *cliqueapsp.Engine
	gate *sched.Gate   // fleet-wide build admission (nil = unlimited)
	tick atomic.Uint64 // logical LRU clock

	// Persistence counters live outside mu: they are bumped from tenant
	// build goroutines (persist hooks) and from loading readers.
	persists        atomic.Uint64
	persistErrors   atomic.Uint64
	restored        atomic.Uint64
	restoreErrors   atomic.Uint64
	coldHits        atomic.Uint64
	rehydrateErrors atomic.Uint64
	throttled       atomic.Uint64 // quota rejections across all tenants, ever
	demotions       atomic.Uint64 // hot tenants swapped to cold serving
	promotions      atomic.Uint64 // cold tenants decoded back to hot
	fullDecodes     atomic.Uint64 // complete O(n²) snapshot decodes (Store.Load)

	mu         sync.Mutex
	tenants    map[string]*Tenant // the tenant table
	totalNodes int
	created    uint64
	deleted    uint64
	evictions  uint64
	closed     bool
}

// tenantState is a tenant table entry's place in the lifecycle.
type tenantState uint8

const (
	// serving: hosted and admitted; Peek and Get return it.
	serving tenantState = iota
	// evicted: holds no slot and no node budget, but has snapshots on disk
	// and remembers its config (RunOptions, BuildTimeout, Pinned — state a
	// snapshot cannot carry) for the load that brings it back.
	evicted
	// loading: its snapshot is read, then admitted (claiming a slot) and
	// published. Peek cannot see it; Get waits for done.
	loading
	// closing: the name's oracle is draining after eviction (a build
	// accepted just before may still persist), or a Delete is erasing the
	// name's snapshots. Get, Create and Delete wait for done, so nothing
	// loads or wipes files that are still changing.
	closing
)

// NewManager returns an empty Manager.
func NewManager(cfg ManagerConfig) *Manager {
	eng := cfg.Base.Engine
	if eng == nil {
		eng = cliqueapsp.New()
	}
	return &Manager{
		cfg:     cfg,
		eng:     eng,
		gate:    sched.NewGate(cfg.BuildConcurrency),
		tenants: make(map[string]*Tenant),
	}
}

// newOracle builds t's oracle: ManagerConfig.Base with t's overrides on
// top, the fleet hooks tagged with t's name, and (with a Store) every
// publish persisted.
func (m *Manager) newOracle(t *Tenant) *Oracle {
	name, tc := t.name, t.cfg
	cfg := m.cfg.Base
	cfg.Engine = m.eng
	cfg.gate = m.gate // every tenant build passes the fleet admission gate
	cfg.name = name   // so build traces carry the tenant they belong to
	if tc.Algorithm != "" {
		cfg.Algorithm = tc.Algorithm
	}
	if tc.Eps > 0 {
		cfg.Eps = tc.Eps
	}
	opts := append([]cliqueapsp.RunOption(nil), cfg.RunOptions...)
	if tc.Seed != 0 {
		opts = append(opts, cliqueapsp.WithSeed(tc.Seed))
	}
	cfg.RunOptions = append(opts, tc.RunOptions...)
	if tc.BuildTimeout > 0 {
		cfg.BuildTimeout = tc.BuildTimeout
	}
	if hook := m.cfg.OnRebuild; hook != nil {
		cfg.OnRebuild = tagged(name, cfg.OnRebuild, hook)
	}
	if hook := m.cfg.OnRepair; hook != nil {
		cfg.OnRepair = tagged(name, cfg.OnRepair, hook)
	}
	if hook := m.cfg.OnPhase; hook != nil {
		inner := cfg.OnPhase
		cfg.OnPhase = func(phase string, d time.Duration) {
			if inner != nil {
				inner(phase, d)
			}
			hook(name, phase, d)
		}
	}
	if m.cfg.Store != nil {
		inner := cfg.OnPublish
		eps := cfg.Eps // the single effective value every rebuild runs with
		seedPinned := tc.Seed != 0
		cfg.OnPublish = func(p Published) {
			if inner != nil {
				inner(p)
			}
			m.persist(t, eps, seedPinned, p)
		}
	}
	return New(cfg)
}

// tagged chains a tenant's own build hook (nil = none) with a fleet hook
// that also receives the tenant name.
func tagged(name string, inner func(uint64, time.Duration, error), hook func(string, uint64, time.Duration, error)) func(uint64, time.Duration, error) {
	return func(v uint64, d time.Duration, err error) {
		if inner != nil {
			inner(v, d, err)
		}
		hook(name, v, d, err)
	}
}

// Create adds a tenant under name. When MaxGraphs is reached the
// least-recently-used idle, unpinned tenant is evicted to make room;
// ErrOverCapacity is returned if none is evictable.
func (m *Manager) Create(name string, tc TenantConfig) (*Tenant, error) {
	if name == "" {
		return nil, fmt.Errorf("oracle: empty tenant name")
	}
	if err := tc.Quota.Validate(); err != nil {
		return nil, err
	}
	// Reconcile with any persisted snapshots under this name: an adopting
	// create seeds its version counter above them, a replacing create
	// removes them after it succeeds (stale incarnation data must not
	// resurrect under a freshly configured tenant — but a create that FAILS
	// must not have destroyed anything either).
	var reserve uint64
	if m.cfg.Store != nil && tc.AdoptPersisted {
		var err error
		if reserve, err = m.newest(name); err != nil {
			// "Could not tell" must not become "nothing persisted": an
			// unreserved counter would let stale files shadow (and GC
			// swallow) this tenant's fresh builds.
			return nil, fmt.Errorf("oracle: probing persisted snapshots of %q: %w", name, err)
		}
	}
	wipe := m.cfg.Store != nil && !tc.AdoptPersisted
	t := m.newTenant(name, tc, serving)
	t.onDisk = reserve > 0
	t.o = m.newOracle(t)
	// Start above the previous incarnation's persisted versions, so this
	// tenant's publishes supersede the old files on disk instead of being
	// shadowed by them on the next load (and so keep-K GC never collects a
	// fresh snapshot in favor of stale ones).
	t.o.reserveVersions(reserve)
	if wipe {
		// The entry stays in transition until the wipe below is done: Peek
		// and Get cannot hand the tenant out (so no SetGraph can build and
		// persist a snapshot the wipe would swallow), eviction skips it, and
		// a Create, Delete or load of the name waits.
		t.done = make(chan struct{})
	}
	m.mu.Lock()
	if err := m.insertLocked(t); err != nil {
		t.o.Close()
		return nil, err
	}
	if !wipe {
		return t, nil
	}
	derr := m.cfg.Store.Delete(name)
	if errors.Is(derr, store.ErrInvalidName) {
		derr = nil // an unstorable name has nothing on disk to replace
	}
	m.mu.Lock()
	if derr != nil {
		// Stale files we could not remove would resurrect the old
		// incarnation later; back the create out rather than host a tenant
		// with a haunted name.
		m.removeLocked(t)
	}
	m.settleEntryLocked(t)
	m.mu.Unlock()
	if derr != nil {
		t.o.Close()
		return nil, fmt.Errorf("oracle: clearing persisted snapshots of %q: %w", name, derr)
	}
	return t, nil
}

// insertLocked enters t into the table once any load or deletion on its
// name has settled, superseding an evicted entry. A serving t claims its
// MaxGraphs slot now, evicting the LRU idle tenant if every slot is held;
// a loading one claims it with its first admitNodes, once the disk has
// shown there is something to load. Called with m.mu held; returns with
// it released.
func (m *Manager) insertLocked(t *Tenant) error {
	prev, _ := m.settleLocked(t.name)
	if m.closed {
		m.mu.Unlock()
		return ErrClosed
	}
	if prev != nil && prev.state != evicted {
		m.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrTenantExists, t.name)
	}
	var victims []*Tenant
	if limit := m.cfg.MaxGraphs; limit > 0 && t.state == serving {
		if held := m.slotsLocked(); held >= limit {
			// Slot pressure only: a demotion keeps its tenant hosted, so the
			// plan can never contain one here.
			if victims, _ = m.evictLocked(held-limit+1, 0, nil); victims == nil {
				m.mu.Unlock()
				return errNoSlot(limit)
			}
		}
	}
	m.tenants[t.name] = t
	m.created++
	m.mu.Unlock()
	m.drain(victims)
	return nil
}

// settleLocked waits out any transition on name — a load, a closing
// oracle, a Delete's erase, a Create's wipe — and returns the settled
// entry (nil = absent) with the error of the last load it waited for.
// m.mu is held on entry and on return.
func (m *Manager) settleLocked(name string) (*Tenant, error) {
	var err error
	for {
		t := m.tenants[name]
		if t == nil || t.done == nil {
			return t, err
		}
		done := t.done
		m.mu.Unlock()
		<-done
		m.mu.Lock()
		err = t.err
	}
}

// settleEntryLocked ends t's transition: its waiters wake to re-read the
// table.
func (m *Manager) settleEntryLocked(t *Tenant) {
	close(t.done)
	t.done = nil
}

// slotsLocked counts the table entries holding a MaxGraphs slot: serving
// ones, and loading ones once admitted (every graph has a node).
func (m *Manager) slotsLocked() (n int) {
	for _, t := range m.tenants {
		if t.state == serving || t.state == loading && t.nodes.Load() > 0 {
			n++
		}
	}
	return n
}

func errNoSlot(limit int) error {
	return fmt.Errorf("%w: %d graphs served, no idle tenant to evict", ErrOverCapacity, limit)
}

// Get resolves a tenant by name and refreshes its LRU recency. With a
// Store configured, a name that is not hosted — typically because LRU
// eviction reclaimed it — is loaded from its newest persisted snapshot
// before being returned: the eviction cost a disk read, not the tenant.
// Concurrent Gets of a loading tenant share its one load: they wait for it
// and then get a tenant that can answer, or the load's error.
func (m *Manager) Get(name string) (*Tenant, error) {
	m.mu.Lock()
	t, err := m.settleLocked(name)
	switch {
	case t != nil && t.state == serving:
		m.mu.Unlock()
		t.touch()
		return t, nil
	case err == nil && m.closed:
		err = ErrClosed
	case err == nil && m.cfg.Store == nil:
		err = fmt.Errorf("%w: %q", ErrTenantNotFound, name)
	}
	if err != nil {
		m.mu.Unlock()
		return nil, err
	}
	switch t, err = m.hydrate(name, t); {
	case err == nil:
		m.coldHits.Add(1)
		t.touch()
	case !errors.Is(err, ErrTenantNotFound):
		m.rehydrateErrors.Add(1)
	}
	return t, err
}

// Peek resolves a tenant by name WITHOUT refreshing its LRU recency. Use it
// for monitoring lookups (stats, listings): a dashboard scraping every
// tenant must not overwrite the recency ordering that query traffic
// establishes, or eviction would pick victims by poll phase instead of by
// actual idleness. Peek never loads, waits, or returns a tenant in
// transition (loading, closing, or still being created).
func (m *Manager) Peek(name string) (*Tenant, error) {
	m.mu.Lock()
	t, ok := m.tenants[name]
	ok = ok && t.state == serving && t.done == nil
	m.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrTenantNotFound, name)
	}
	return t, nil
}

// Names returns the hosted tenant names in sorted order.
func (m *Manager) Names() []string {
	m.mu.Lock()
	tenants := m.servingLocked()
	m.mu.Unlock()
	names := make([]string, len(tenants))
	for i, t := range tenants {
		names[i] = t.name
	}
	sort.Strings(names)
	return names
}

// Persisted reports whether name has snapshots on disk for Get to load:
// the tenant table answers for the names it holds, a store probe for the
// rest (names not seen since boot, or whose restore failed). A failed
// probe is returned as an error, never as "not persisted".
func (m *Manager) Persisted(name string) (bool, error) {
	if m.cfg.Store == nil {
		return false, nil
	}
	m.mu.Lock()
	t, known := m.tenants[name]
	onDisk := known && t.onDisk
	m.mu.Unlock()
	if known {
		return onDisk, nil
	}
	v, err := m.newest(name)
	return v > 0, err
}

// Evicted lists, sorted, the tenants that are persisted but not hosted:
// Peek cannot see them, yet Get would load them from disk.
func (m *Manager) Evicted() ([]string, error) {
	if m.cfg.Store == nil {
		return nil, nil
	}
	names, err := m.cfg.Store.Tenants()
	if err != nil {
		return nil, fmt.Errorf("listing persisted tenants: %w", err)
	}
	var out []string
	for _, name := range names {
		_, perr := m.Peek(name)
		onDisk, err := m.Persisted(name)
		if err != nil {
			return nil, fmt.Errorf("probing persisted snapshots of %q: %w", name, err)
		}
		if perr != nil && onDisk {
			out = append(out, name)
		}
	}
	return out, nil
}

// newest returns the newest snapshot version persisted under name (0 =
// none; a name the store cannot hold has none).
func (m *Manager) newest(name string) (uint64, error) {
	vs, err := m.cfg.Store.Versions(name)
	if err != nil || len(vs) == 0 {
		if errors.Is(err, store.ErrInvalidName) {
			err = nil
		}
		return 0, err
	}
	return vs[len(vs)-1], nil
}

// Delete removes a tenant and drains its build loop. Outstanding Tenant
// handles keep answering queries from the last published snapshot. With a
// Store configured the tenant's persisted snapshots are removed too —
// unlike eviction, Delete means gone, so the name must not resurrect on
// the next Get: the name is held in the closing state for the whole call
// (Gets wait rather than load), the build loop is drained — its final
// in-flight build may persist one last snapshot — and only then is the
// disk state erased, so nothing persisted outlives the call. An
// evicted-but-persisted tenant — addressable through Get — is deletable
// too, even though it is not currently hosted. A store deletion failure is
// returned (and reported through OnPersist with version 0), so the caller
// knows files survived and the name can still load; the in-memory removal
// stands regardless.
func (m *Manager) Delete(name string) error {
	m.mu.Lock()
	t, _ := m.settleLocked(name)
	hosted := t != nil && t.state == serving
	if hosted {
		m.removeLocked(t)
		m.deleted++
	}
	claim := &Tenant{name: name, m: m, state: closing, done: make(chan struct{})}
	m.tenants[name] = claim
	m.mu.Unlock()
	if hosted {
		t.o.Close()
	}
	err := m.erase(name, t != nil)
	m.mu.Lock()
	delete(m.tenants, name)
	if err != nil && t != nil && !errors.Is(err, ErrTenantNotFound) {
		// Files survived the erase: the name can still load, and must come
		// back with its config.
		m.tenants[name] = &Tenant{name: name, m: m, cfg: t.cfg, state: evicted, onDisk: true}
	}
	m.settleEntryLocked(claim)
	m.mu.Unlock()
	return err
}

// erase removes name's persisted snapshots for Delete. known says the
// tenant table held the name; any other name is probed first, so one that
// was never persisted is ErrTenantNotFound.
func (m *Manager) erase(name string, known bool) error {
	var err error
	if !known && m.cfg.Store != nil {
		var v uint64
		v, err = m.newest(name)
		known = v > 0
	}
	if !known && err == nil {
		return fmt.Errorf("%w: %q", ErrTenantNotFound, name)
	}
	if m.cfg.Store == nil {
		return nil
	}
	// Erasing an absent tenant is a no-op, so when the probe failed we
	// erase blindly rather than risk leaving loadable files behind — and
	// then surface the probe failure rather than claim a deletion we cannot
	// vouch for.
	if derr := m.cfg.Store.Delete(name); derr != nil && !errors.Is(derr, store.ErrInvalidName) {
		if m.cfg.OnPersist != nil {
			m.cfg.OnPersist(name, 0, derr)
		}
		return derr
	}
	return err
}

// hostedLocked reports whether t is its name's entry and holds budgets:
// serving, or loading.
func (m *Manager) hostedLocked(t *Tenant) bool {
	return m.tenants[t.name] == t && (t.state == serving || t.state == loading)
}

// removeLocked takes t out of the table, if it is hosted there, and
// releases its node budget.
func (m *Manager) removeLocked(t *Tenant) {
	if m.hostedLocked(t) {
		delete(m.tenants, t.name)
		m.totalNodes -= int(t.nodes.Load())
	}
}

// evictOneLocked evicts t: its budgets are released now, and its name
// stays closing until drain has closed its oracle.
func (m *Manager) evictOneLocked(t *Tenant) {
	m.totalNodes -= int(t.nodes.Load())
	m.evictions++
	t.state, t.done = closing, make(chan struct{})
}

// demotion is one planned tier demotion: t stays hosted, keeps serving
// version v, but swaps its resident snapshot for a cold reader; its node
// charge is retagged to cc under the manager lock at plan time.
type demotion struct {
	t  *Tenant
	v  uint64
	cc int
}

// evictLocked reclaims count tenant slots and freeNodes of node budget from
// LRU victims among the serving tenants, skipping pinned tenants, tenants
// with a rebuild queued or running (not idle), and keep. With tiered serving configured, node pressure
// prefers DEMOTING a hot victim — it stays hosted and keeps answering, now
// from disk at a min(ColdCacheRows, n) charge — over removing it; slot
// pressure always removes (a demotion frees no slot), and if demotions
// alone cannot reach the goal the plan escalates to removals before giving
// up. The plan is computed first: if the goal is unattainable nothing is
// touched (a doomed admission must not destroy tenants on its way to
// ErrOverCapacity). Removed victims are returned for the caller to drain
// and planned demotions for the caller to drainDemotes, both outside the
// lock.
func (m *Manager) evictLocked(count, freeNodes int, keep *Tenant) ([]*Tenant, []demotion) {
	candidates := make([]*Tenant, 0, len(m.tenants))
	for _, t := range m.tenants {
		if t == keep || t.state != serving || t.done != nil || t.cfg.Pinned || t.o.Stats().Pending {
			continue
		}
		candidates = append(candidates, t)
	}
	sort.Slice(candidates, func(i, j int) bool {
		return candidates[i].lastUsed.Load() < candidates[j].lastUsed.Load()
	})
	removes, demotes, ok := m.planEvictLocked(candidates, count, freeNodes, m.cfg.Cold != nil)
	if !ok && m.cfg.Cold != nil {
		// Demotion gains (n−cc per victim) were not enough; a plan of plain
		// removals frees strictly more per victim.
		removes, demotes, ok = m.planEvictLocked(candidates, count, freeNodes, false)
	}
	if !ok {
		return nil, nil
	}
	for _, t := range removes {
		m.evictOneLocked(t)
	}
	for _, d := range demotes {
		// Retag the charge now, under the lock, so the admission that
		// triggered this eviction sees the budget freed atomically; the
		// actual cold swap happens in drainDemotes (it does disk I/O). If
		// the swap then fails, drainDemotes falls back to a full eviction so
		// the freed memory materializes either way.
		m.totalNodes -= int(d.t.nodes.Load()) - d.cc
		d.t.nodes.Store(int64(d.cc))
	}
	return removes, demotes
}

// planEvictLocked walks LRU-ordered candidates and plans which to remove
// and (when allowDemote) which to demote, without touching anything.
func (m *Manager) planEvictLocked(candidates []*Tenant, count, freeNodes int, allowDemote bool) (removes []*Tenant, demotes []demotion, ok bool) {
	freed := 0
	for _, t := range candidates {
		if len(removes) >= count && freed >= freeNodes {
			break
		}
		n := int(t.nodes.Load())
		if len(removes) < count {
			// Slot pressure: only a removal frees a slot.
			removes = append(removes, t)
			freed += n
			continue
		}
		if allowDemote {
			if v, cc, can := m.demotableLocked(t); can && n-cc > 0 {
				demotes = append(demotes, demotion{t: t, v: v, cc: cc})
				freed += n - cc
				continue
			}
		}
		removes = append(removes, t)
		freed += n
	}
	return removes, demotes, len(removes) >= count && freed >= freeNodes
}

// demotableLocked reports whether t can be demoted to cold serving: tiered
// serving on, a hot snapshot actually serving (its version is what the
// cold reader must find persisted — verified by drainDemotes when it opens
// the file, since disk cannot be probed under the lock).
func (m *Manager) demotableLocked(t *Tenant) (version uint64, cc int, ok bool) {
	if m.cfg.Cold == nil || m.cfg.Store == nil {
		return 0, 0, false
	}
	if t.o.coldReader() != nil {
		return 0, 0, false // already cold
	}
	version = t.o.Version()
	if version == 0 {
		return 0, 0, false // nothing serving, nothing to keep: removal territory
	}
	return version, m.coldCharge(int(t.nodes.Load())), true
}

// cacheRows resolves the configured per-tenant hot-row cache bound.
func (m *Manager) cacheRows() int {
	if m.cfg.ColdCacheRows > 0 {
		return m.cfg.ColdCacheRows
	}
	return DefaultColdCacheRows
}

// coldCharge is the node budget a cold n-node tenant is charged: one unit
// per potentially resident cache row, capped at the graph size. A hot
// tenant holds n rows of 8·n bytes; a cold one holds at most cacheRows of
// them, so the same per-row unit keeps the budget meaning "resident rows".
func (m *Manager) coldCharge(n int) int { return min(m.cacheRows(), n) }

// drainDemotes performs planned demotions outside the manager lock: open
// the cold reader (sidecar or one header pass — never the row block) and
// swap it into the victim's oracle. A victim whose snapshot cannot be
// opened cold falls back to a full eviction, so the memory the plan already
// freed from the budget genuinely materializes.
func (m *Manager) drainDemotes(demotes []demotion) {
	for _, d := range demotes {
		r, err := m.cfg.Cold.OpenCold(d.t.name, d.v, m.cacheRows())
		if err == nil {
			if err = d.t.o.install(newColdSnapshot(r, &d.t.o.cnt)); err != nil {
				r.Close()
			}
		}
		if err == nil {
			m.demotions.Add(1)
			continue
		}
		if errors.Is(err, ErrSuperseded) || errors.Is(err, ErrClosed) {
			// The tenant moved on between plan and swap — a new SetGraph
			// re-admitted it at full charge, a newer build published, or a
			// Delete closed it. Each of those settled the budget through its
			// own path; nothing to undo.
			continue
		}
		// Evict fully instead, unless the tenant moved on meanwhile
		// (re-admitted at a different charge, re-created, or deleted): then
		// whoever moved it owns the budget now.
		m.mu.Lock()
		evict := m.hostedLocked(d.t) && int(d.t.nodes.Load()) == d.cc
		if evict {
			m.evictOneLocked(d.t)
		}
		m.mu.Unlock()
		if evict {
			m.drain([]*Tenant{d.t})
		}
	}
}

// drain closes evicted tenants' oracles outside the manager lock, settles
// their closing names, and fires the eviction hook. Closing waits for the
// victim's build loop, so by the time the admission call that triggered
// the eviction returns, the evicted capacity is genuinely released.
// Victims are selected idle, but a SetGraph admitted just before the
// eviction can still be accepted and persist while the oracle closes;
// only after that does the name go evicted — remembering the victim's
// config for the load that brings it back — or absent when nothing is on
// disk.
func (m *Manager) drain(victims []*Tenant) {
	for _, t := range victims {
		t.o.Close()
		m.mu.Lock()
		if m.tenants[t.name] == t {
			delete(m.tenants, t.name)
			if t.onDisk {
				m.tenants[t.name] = &Tenant{name: t.name, m: m, cfg: t.cfg, state: evicted, onDisk: true}
			}
		}
		t.state = evicted
		m.settleEntryLocked(t)
		m.mu.Unlock()
		if m.cfg.OnEvict != nil {
			m.cfg.OnEvict(t.name)
		}
	}
}

// admitNodes charges t's node budget for an n-node graph — and, on a
// loading tenant's first admission, its MaxGraphs slot — evicting idle
// tenants if the budgets require it, and returns t's previous budget for
// rollback. The caller must hold t.setMu.
func (m *Manager) admitNodes(t *Tenant, n int) (prev int, err error) {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return 0, ErrClosed
	}
	if !m.hostedLocked(t) {
		m.mu.Unlock()
		return 0, fmt.Errorf("%w: %q", ErrTenantNotFound, t.name)
	}
	prev = int(t.nodes.Load())
	slots, nodes := 0, 0
	if limit := m.cfg.MaxGraphs; limit > 0 && t.state == loading && prev == 0 {
		slots = max(0, m.slotsLocked()+1-limit)
	}
	if limit := m.cfg.MaxTotalNodes; limit > 0 {
		nodes = max(0, m.totalNodes+n-prev-limit)
	}
	var victims []*Tenant
	var demotes []demotion
	if slots > 0 || nodes > 0 {
		// A plan that frees anything frees all that was asked.
		victims, demotes = m.evictLocked(slots, nodes, t)
	}
	switch {
	case nodes > 0 && victims == nil && demotes == nil:
		err = fmt.Errorf("%w: %d nodes requested over a budget of %d (%d in use)",
			ErrOverCapacity, n, m.cfg.MaxTotalNodes, m.totalNodes-prev)
	case slots > 0 && victims == nil:
		err = errNoSlot(m.cfg.MaxGraphs)
	default:
		m.totalNodes += n - prev
		t.nodes.Store(int64(n))
	}
	m.mu.Unlock()
	m.drain(victims)
	m.drainDemotes(demotes)
	return prev, err
}

// rollbackNodes restores t's node budget to prev after a failed admission.
func (m *Manager) rollbackNodes(t *Tenant, prev int) {
	m.mu.Lock()
	if m.hostedLocked(t) {
		m.totalNodes += prev - int(t.nodes.Load())
		t.nodes.Store(int64(prev))
	}
	m.mu.Unlock()
}

// persist saves one published snapshot under the tenant's name. It runs on
// the tenant's build goroutine: blocking the build loop on the write is
// deliberate — a rebuild is orders of magnitude more expensive than
// streaming its output to disk, and it guarantees publish order matches
// persist order per tenant.
func (m *Manager) persist(t *Tenant, eps float64, seedPinned bool, p Published) {
	err := m.cfg.Store.Save(t.name, &store.Snapshot{
		Version:     p.Version,
		Algorithm:   string(p.Result.Algorithm),
		FactorBound: p.Result.FactorBound,
		Eps:         eps,
		Seed:        p.Result.Seed,
		SeedPinned:  seedPinned,
		Engine:      cliqueapsp.EngineVersion,
		BaseVersion: p.BaseVersion,
		DeltaCount:  p.DeltaCount,
		Graph:       p.Graph,
		Distances:   p.Result.Distances,
	})
	if err != nil {
		m.persistErrors.Add(1)
	} else {
		m.persists.Add(1)
		m.mu.Lock()
		t.onDisk = true
		m.mu.Unlock()
	}
	if m.cfg.OnPersist != nil {
		m.cfg.OnPersist(t.name, p.Version, err)
	}
}

// loadSnapshot is the manager's only route to Store.Load, so every complete
// O(n²) snapshot decode is counted — the cost the cold tier exists to avoid.
func (m *Manager) loadSnapshot(name string) (*store.Snapshot, error) {
	s, err := m.cfg.Store.Load(name)
	if err == nil {
		m.fullDecodes.Add(1)
	}
	return s, err
}

// hydrate is the loading transition: a fresh entry for name takes the
// place of prev (absent, or an evicted entry whose remembered config it
// inherits), claims a MaxGraphs slot, and loads. It ends serving; a failed
// load puts prev back and hands its waiters the error, so a tenant never
// serves half-loaded. Called with m.mu held; returns with it released.
func (m *Manager) hydrate(name string, prev *Tenant) (*Tenant, error) {
	var tc TenantConfig
	if prev != nil {
		tc = prev.cfg
	}
	t := m.newTenant(name, tc, loading)
	t.onDisk, t.done = true, make(chan struct{})
	if err := m.insertLocked(t); err != nil {
		return nil, err
	}
	err := m.load(t, prev == nil)
	switch {
	case errors.Is(err, store.ErrNotFound), errors.Is(err, store.ErrInvalidName):
		// Nothing persisted (an unstorable name never was): an absent
		// tenant, not a broken load.
		err = fmt.Errorf("%w: %q", ErrTenantNotFound, name)
	case err != nil:
		err = fmt.Errorf("oracle: loading %q: %w", name, err)
	}
	m.mu.Lock()
	if err == nil && m.tenants[name] != t {
		err = ErrClosed // Close emptied the table mid-load
	}
	if err == nil {
		t.state = serving
	} else {
		m.removeLocked(t)
		if prev != nil && !m.closed {
			m.tenants[name] = prev
		}
	}
	t.err = err
	m.settleEntryLocked(t)
	m.mu.Unlock()
	if err != nil {
		if t.o != nil {
			t.o.Close()
		}
		return nil, err
	}
	return t, nil
}

// load publishes the newest persisted snapshot of t's name on t without an
// engine run — the one path behind RestoreAll, rehydration on Get, and
// Promote. The tier is chosen before any O(n²) decode: cold when tiered
// serving is on and the node budget has no headroom for the full matrix
// (the reader's index carries the graph size), hot otherwise; promoting a
// cold tenant always decodes. Then, in order: resolve the config (a loading
// entry has no oracle yet — it builds one from its remembered config, or
// from the persisted provenance when fromDisk), admit the graph against
// the node budget, and publish.
func (m *Manager) load(t *Tenant, fromDisk bool) error {
	promote := t.o != nil && t.o.coldReader() != nil
	var r *tier.Reader
	if m.cfg.Cold != nil && !promote {
		if r = m.openNewestCold(t.name); r != nil && m.hasHeadroom(r.N()) {
			r.Close()
			r = nil
		}
	}
	var (
		snap *store.Snapshot
		prov store.RowIndex
		n    int
	)
	if r != nil {
		prov, n = r.Index(), m.coldCharge(r.N())
	} else {
		var err error
		if snap, err = m.loadSnapshot(t.name); err != nil {
			return err
		}
		if promote && snap.Version != t.o.Version() {
			return fmt.Errorf("%w: newest persisted snapshot of %q is v%d, serving v%d",
				ErrSuperseded, t.name, snap.Version, t.o.Version())
		}
		prov = store.RowIndex{
			Algorithm:  snap.Algorithm,
			Eps:        snap.Eps,
			Seed:       snap.Seed,
			SeedPinned: snap.SeedPinned,
		}
		n = snap.Graph.N()
	}
	if t.o == nil {
		if fromDisk {
			t.cfg = TenantConfig{Algorithm: cliqueapsp.Algorithm(prov.Algorithm), Eps: prov.Eps}
			// The persisted seed is always the concrete seed of the run;
			// re-pin it only if the tenant had pinned it, or a tenant that
			// wanted fresh randomness per rebuild would silently freeze.
			if prov.SeedPinned {
				t.cfg.Seed = prov.Seed
			}
		}
		t.o = m.newOracle(t)
	}
	t.setMu.Lock()
	defer t.setMu.Unlock()
	prev, err := m.admitNodes(t, n)
	if err == nil {
		var s *snapshot
		if r != nil {
			s = newColdSnapshot(r, &t.o.cnt)
		} else {
			// Communication accounting (rounds/messages/words) is not
			// persisted: it describes the simulated run, not the estimate.
			res := &cliqueapsp.Result{
				Distances:   snap.Distances,
				FactorBound: snap.FactorBound,
				Algorithm:   cliqueapsp.Algorithm(snap.Algorithm),
				Seed:        snap.Seed,
			}
			s = newSnapshot(snap.Version, snap.Graph, res, &t.o.cnt)
		}
		if err = t.o.install(s); err != nil {
			m.rollbackNodes(t, prev)
		}
	}
	if err != nil && r != nil {
		r.Close()
	}
	return err
}

// openNewestCold opens a tier reader over name's newest persisted version.
// Any failure returns nil: the caller falls back to the decode path, which
// produces the canonical error (or a hot restore).
func (m *Manager) openNewestCold(name string) *tier.Reader {
	if v, err := m.newest(name); err == nil && v > 0 {
		if r, err := m.cfg.Cold.OpenCold(name, v, m.cacheRows()); err == nil {
			return r
		}
	}
	return nil
}

// hasHeadroom reports whether an n-node hot restore fits the node budget
// without evicting or demoting anyone — the tier choice at restore time:
// decode hot while memory is free, serve cold once it is not.
func (m *Manager) hasHeadroom(n int) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.cfg.MaxTotalNodes == 0 || m.totalNodes+n <= m.cfg.MaxTotalNodes
}

// RestoreAll restores every tenant persisted in the store, bringing the
// whole fleet up to serving before any rebuild runs: absent tenants load
// with their persisted provenance as config, evicted ones with the config
// they remember, existing tenants that are
// not yet serving (the daemon's pinned default, created empty at boot)
// have their snapshot published in place, and tenants that already serve a
// snapshot are left alone. A tenant whose snapshot fails to load or restore
// — corrupt file, unknown format, over-budget graph — is skipped and
// reported; the rest of the fleet still restores. report (optional)
// observes every attempted tenant with nil or its error; the returned
// counts summarize the sweep, and err is non-nil only when the store
// listing itself failed.
func (m *Manager) RestoreAll(report func(tenant string, err error)) (restored, failed int, err error) {
	if m.cfg.Store == nil {
		return 0, 0, fmt.Errorf("oracle: RestoreAll without a configured Store")
	}
	if report == nil {
		report = func(string, error) {}
	}
	names, err := m.cfg.Store.Tenants()
	if err != nil {
		return 0, 0, err
	}
	for _, name := range names {
		m.mu.Lock()
		t, _ := m.settleLocked(name)
		var rerr error
		switch {
		case t == nil || t.state == evicted:
			_, rerr = m.hydrate(name, t)
		case t.Ready():
			// A tenant that already serves needs no snapshot read at all.
			m.mu.Unlock()
			continue
		default:
			m.mu.Unlock()
			rerr = m.load(t, false)
		}
		switch {
		case rerr == nil:
			m.restored.Add(1)
			restored++
			report(name, nil)
		case errors.Is(rerr, ErrTenantNotFound), errors.Is(rerr, store.ErrNotFound), errors.Is(rerr, ErrSuperseded):
			// Nothing persisted, or a live upload beat the restore; its
			// build wins.
		default:
			m.restoreErrors.Add(1)
			failed++
			report(name, rerr)
		}
	}
	return restored, failed, nil
}

// Promote decodes the newest persisted snapshot of a cold-serving tenant
// and swaps it in hot, admitting the full n-node charge (which may demote
// or evict idler tenants). A tenant already hot is a no-op; ErrSuperseded
// means the serving snapshot moved while the decode ran — the mover's state
// wins. Promotion is explicit policy, not automatic: sustained traffic is
// visible in TenantStats (ColdServes, RowCache misses) and the operator —
// or a layer above — decides who earns the memory back.
func (m *Manager) Promote(name string) error {
	t, err := m.Peek(name)
	if err != nil || t.o.coldReader() == nil {
		return err
	}
	if err := m.load(t, false); err != nil {
		return fmt.Errorf("oracle: promoting %q: %w", name, err)
	}
	m.promotions.Add(1)
	return nil
}

// SetQuota ensures q is the quota enforced for name, whether the tenant is
// currently hosted or evicted-awaiting-load (the config an evicted entry
// remembers is updated, so a quota change cannot be lost to an eviction
// window). Unlike Tenant.SetQuota it is idempotent: a hosted tenant already
// enforcing q keeps its bucket state, so periodic reconciliation (e.g. a
// daemon's config reload) does not hand every tenant a fresh burst. An
// unknown name is a no-op — the quota simply has nothing to attach to.
func (m *Manager) SetQuota(name string, q Quota) error {
	if err := q.Validate(); err != nil {
		return err
	}
	m.mu.Lock()
	t, _ := m.settleLocked(name)
	if t != nil && t.state == evicted {
		t.cfg.Quota = q // the config its load brings back
		t = nil
	}
	m.mu.Unlock()
	if t != nil && t.Quota() != q {
		return t.SetQuota(q)
	}
	return nil
}

// ManagerStats aggregates the manager's admission counters with every
// tenant's own Stats.
type ManagerStats struct {
	// Graphs and TotalNodes describe current occupancy; MaxGraphs and
	// MaxTotalNodes echo the configured budgets (0 = unlimited).
	Graphs        int `json:"graphs"`
	MaxGraphs     int `json:"max_graphs"`
	TotalNodes    int `json:"total_nodes"`
	MaxTotalNodes int `json:"max_total_nodes"`
	// Created, Deleted and Evictions count tenant lifecycle events since
	// the manager was built.
	Created   uint64 `json:"created"`
	Deleted   uint64 `json:"deleted"`
	Evictions uint64 `json:"evictions"`
	// Persists and PersistErrors count snapshot saves through the configured
	// Store (all zero without one).
	Persists      uint64 `json:"persists"`
	PersistErrors uint64 `json:"persist_errors"`
	// Restored and RestoreErrors count RestoreAll outcomes: tenants brought
	// up from disk at boot, and tenants skipped because their snapshot would
	// not load or restore.
	Restored      uint64 `json:"restored"`
	RestoreErrors uint64 `json:"restore_errors"`
	// ColdHits counts evicted (or otherwise unhosted) tenants rehydrated
	// from disk on access — each one is an eviction that cost a disk read
	// instead of the tenant; RehydrateErrors counts rehydrations that failed
	// on a loadable-but-unrestorable or corrupt snapshot.
	ColdHits        uint64 `json:"cold_hits"`
	RehydrateErrors uint64 `json:"rehydrate_errors"`
	// Throttled counts queries rejected by per-tenant quotas, summed over
	// every tenant that ever lived in this manager (per-tenant counters die
	// with their tenant; this one does not).
	Throttled uint64 `json:"throttled"`
	// Demotions counts hot tenants swapped to cold (disk-tier) serving under
	// memory pressure — evictions that kept their tenant; Promotions counts
	// cold tenants decoded back to hot serving.
	Demotions  uint64 `json:"demotions"`
	Promotions uint64 `json:"promotions"`
	// FullDecodes counts complete O(n²) snapshot decodes (restores,
	// rehydrations, promotions) — the cost cold serving exists to avoid. A
	// tight-budget boot that comes up entirely cold reports zero.
	FullDecodes uint64 `json:"full_decodes"`
	// ColdTenants counts hosted tenants currently serving from the disk
	// tier; ColdServes and the RowCache counters sum those tenants' query
	// and hot-row cache activity. Summed over hosted tenants only: a
	// demoted-then-deleted tenant takes its counts with it.
	ColdTenants       int    `json:"cold_tenants"`
	ColdServes        uint64 `json:"cold_serves"`
	RowCacheHits      uint64 `json:"row_cache_hits"`
	RowCacheMisses    uint64 `json:"row_cache_misses"`
	RowCacheEvictions uint64 `json:"row_cache_evictions"`
	// BuildConcurrency echoes the configured build admission cap (absent =
	// unlimited); BuildsRunning and BuildsQueued sample the gate right now;
	// BuildsAdmitted counts builds ever admitted through the gate, and
	// BuildWaitNS is the cumulative time builds spent queued behind it.
	BuildConcurrency int    `json:"build_concurrency,omitempty"`
	BuildsRunning    int    `json:"builds_running"`
	BuildsQueued     int    `json:"builds_queued"`
	BuildsAdmitted   uint64 `json:"builds_admitted"`
	BuildWaitNS      int64  `json:"build_wait_ns"`
	// Tenants holds one entry per hosted tenant, sorted by name.
	Tenants []TenantStats `json:"tenants"`
}

// Stats returns a point-in-time view of the manager and all tenants.
func (m *Manager) Stats() ManagerStats {
	m.mu.Lock()
	st := ManagerStats{
		Graphs:        m.slotsLocked(),
		MaxGraphs:     m.cfg.MaxGraphs,
		TotalNodes:    m.totalNodes,
		MaxTotalNodes: m.cfg.MaxTotalNodes,
		Created:       m.created,
		Deleted:       m.deleted,
		Evictions:     m.evictions,

		Persists:        m.persists.Load(),
		PersistErrors:   m.persistErrors.Load(),
		Restored:        m.restored.Load(),
		RestoreErrors:   m.restoreErrors.Load(),
		ColdHits:        m.coldHits.Load(),
		RehydrateErrors: m.rehydrateErrors.Load(),
		Throttled:       m.throttled.Load(),
		Demotions:       m.demotions.Load(),
		Promotions:      m.promotions.Load(),
		FullDecodes:     m.fullDecodes.Load(),
	}
	gs := m.gate.Stats()
	st.BuildConcurrency = gs.Slots
	st.BuildsRunning = gs.InUse
	st.BuildsQueued = gs.Queued
	st.BuildsAdmitted = gs.Acquired
	st.BuildWaitNS = gs.WaitNS
	tenants := m.servingLocked()
	m.mu.Unlock()
	sort.Slice(tenants, func(i, j int) bool { return tenants[i].name < tenants[j].name })
	st.Tenants = make([]TenantStats, len(tenants))
	for i, t := range tenants {
		ts := t.Stats()
		st.Tenants[i] = ts
		st.ColdServes += ts.Oracle.ColdServes
		if ts.Tier == "cold" {
			st.ColdTenants++
			if rc := ts.Oracle.RowCache; rc != nil {
				st.RowCacheHits += rc.Hits
				st.RowCacheMisses += rc.Misses
				st.RowCacheEvictions += rc.Evictions
			}
		}
	}
	return st
}

// servingLocked returns the serving entries of the table.
func (m *Manager) servingLocked() []*Tenant {
	tenants := make([]*Tenant, 0, len(m.tenants))
	for _, t := range m.tenants {
		if t.state == serving {
			tenants = append(tenants, t)
		}
	}
	return tenants
}

// Close drains every tenant's build loop and rejects further Create,
// Get-by-new-name admission and SetGraph calls. Idempotent. Like
// Oracle.Close, existing snapshots keep answering queries on outstanding
// handles.
func (m *Manager) Close() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.closed = true
	// Loads in flight find the table emptied and close their own oracles.
	tenants := m.servingLocked()
	m.tenants = make(map[string]*Tenant)
	m.totalNodes = 0
	m.mu.Unlock()
	for _, t := range tenants {
		t.o.Close()
	}
}
