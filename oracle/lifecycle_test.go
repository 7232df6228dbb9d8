package oracle_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	cliqueapsp "github.com/congestedclique/cliqueapsp"
	"github.com/congestedclique/cliqueapsp/oracle"
	"github.com/congestedclique/cliqueapsp/store"
	"github.com/congestedclique/cliqueapsp/tier"
)

// hangBuilds makes every test-hang build block until its oracle closes —
// a build that never finishes, as in a process killed mid-build.
var hangBuilds atomic.Bool

func init() {
	mustRegister("test-hang", cliqueapsp.AlgorithmSpec{
		Summary:     "exact distances, or a build that hangs while hangBuilds is set",
		FactorBound: "1",
		RoundClass:  "0",
		Bandwidth:   "n/a",
		Run: func(ctx context.Context, g *cliqueapsp.Graph, p cliqueapsp.RunParams) (cliqueapsp.AlgorithmOutput, error) {
			if hangBuilds.Load() {
				<-ctx.Done()
				return cliqueapsp.AlgorithmOutput{}, ctx.Err()
			}
			return cliqueapsp.AlgorithmOutput{Distances: cliqueapsp.Exact(g), Factor: 1}, nil
		},
	})
}

// lifecycleState names where the public API places name in the tenant
// lifecycle: "serving" (Peek returns it), "evicted" (not hosted, but
// persisted for Get to load), or "absent". Loading is transient and never
// visible to Peek.
func lifecycleState(t *testing.T, m *oracle.Manager, name string) string {
	t.Helper()
	if _, err := m.Peek(name); err == nil {
		return "serving"
	}
	onDisk, err := m.Persisted(name)
	if err != nil {
		t.Fatalf("Persisted(%q): %v", name, err)
	}
	if onDisk {
		return "evicted"
	}
	return "absent"
}

// checkAccounting asserts the manager's budgets add up: the node total is
// the sum of the hosted tenants' charges, and neither budget is exceeded.
func checkAccounting(t *testing.T, m *oracle.Manager) {
	t.Helper()
	st := m.Stats()
	sum := 0
	for _, ts := range st.Tenants {
		sum += ts.Nodes
	}
	if st.TotalNodes != sum || st.Graphs != len(st.Tenants) {
		t.Fatalf("accounting: total %d over %d graphs, but tenants sum to %d over %d", st.TotalNodes, st.Graphs, sum, len(st.Tenants))
	}
	if (st.MaxGraphs > 0 && st.Graphs > st.MaxGraphs) || (st.MaxTotalNodes > 0 && st.TotalNodes > st.MaxTotalNodes) {
		t.Fatalf("budgets exceeded: %+v", st)
	}
}

// expectDist asserts tn answers Dist(0, n-1) of a pathGraph(n, w) exactly.
func expectDist(t *testing.T, tn *oracle.Tenant, n int, w int64) {
	t.Helper()
	dr, err := tn.Dist(0, n-1)
	if err != nil || dr.Distance != int64(n-1)*w {
		t.Fatalf("%s: Dist(0,%d) = %+v, %v — want %d", tn.Name(), n-1, dr, err, int64(n-1)*w)
	}
}

// TestLifecycleLoadingTenantInvisible pins the fix for the race where a
// rehydration published its tenant before restoring its snapshot: while
// alpha's load evicts filler, a Peek from the eviction hook must not see
// alpha, and the Get that loads it returns it ready.
func TestLifecycleLoadingTenantInvisible(t *testing.T) {
	dir := openStore(t)
	var m *oracle.Manager
	peeked := make(chan error, 4)
	m = oracle.NewManager(oracle.ManagerConfig{
		MaxGraphs: 1,
		Base:      oracle.Config{Algorithm: "test-exact"},
		Store:     dir,
		OnEvict: func(name string) {
			if name != "filler" {
				return
			}
			switch tn, err := m.Peek("alpha"); {
			case err == nil && !tn.Ready():
				peeked <- errors.New("Peek returned alpha before its snapshot was published")
			case err != nil && !errors.Is(err, oracle.ErrTenantNotFound):
				peeked <- err
			default:
				peeked <- nil
			}
		},
	})
	defer m.Close()

	setAndWait(t, mustTenant(t, m, "alpha", oracle.TenantConfig{}), pathGraph(t, 6, 2))
	mustTenant(t, m, "filler", oracle.TenantConfig{}) // evicts alpha
	tn, err := m.Get("alpha")                         // loads alpha, evicting filler
	if err != nil {
		t.Fatal(err)
	}
	if err := <-peeked; err != nil {
		t.Fatal(err)
	}
	expectDist(t, tn, 6, 2)
}

// TestLifecycleWaitReturnedMeansIdle pins the fix for the race where a
// tenant stayed "pending" after its Wait returned, until the build loop
// came around again: a blocked completion hook must not keep it busy — not
// in Stats, and not to eviction.
func TestLifecycleWaitReturnedMeansIdle(t *testing.T) {
	release := make(chan struct{})
	o := oracle.New(oracle.Config{
		Algorithm: "test-exact",
		OnRebuild: func(uint64, time.Duration, error) { <-release },
	})
	v, err := o.SetGraph(pathGraph(t, 4, 1))
	if err != nil {
		t.Fatal(err)
	}
	waitReady(t, o, v)
	pending := o.Stats().Pending
	close(release)
	o.Close()
	if pending {
		t.Fatal("Stats().Pending still true after Wait returned")
	}

	hold := make(chan struct{})
	m := oracle.NewManager(oracle.ManagerConfig{
		MaxGraphs: 1,
		Base:      oracle.Config{Algorithm: "test-exact"},
		OnRebuild: func(string, uint64, time.Duration, error) { <-hold },
	})
	defer m.Close()
	alpha := mustTenant(t, m, "alpha", oracle.TenantConfig{})
	setAndWait(t, alpha, pathGraph(t, 4, 1))
	created := make(chan error, 1)
	go func() {
		_, err := m.Create("beta", oracle.TenantConfig{})
		created <- err
	}()
	// Eviction marks alpha before draining it; the drain itself waits for
	// the hook, so release it only once alpha was chosen.
	for !alpha.Evicted() {
		select {
		case err := <-created:
			close(hold)
			t.Fatalf("Create(beta) = %v before evicting the idle alpha", err)
		case <-time.After(time.Millisecond):
		}
	}
	close(hold)
	if err := <-created; err != nil {
		t.Fatal(err)
	}
}

// TestLifecycleGetAfterClose: a closed Manager answers Get with ErrClosed
// before touching the store — no snapshot decode, no rehydrate error.
func TestLifecycleGetAfterClose(t *testing.T) {
	dir := openStore(t)
	m := oracle.NewManager(oracle.ManagerConfig{
		MaxGraphs: 1,
		Base:      oracle.Config{Algorithm: "test-exact"},
		Store:     dir,
	})
	setAndWait(t, mustTenant(t, m, "alpha", oracle.TenantConfig{}), pathGraph(t, 5, 1))
	mustTenant(t, m, "filler", oracle.TenantConfig{}) // evicts alpha
	m.Close()
	for _, name := range []string{"alpha", "filler", "ghost"} {
		if _, err := m.Get(name); !errors.Is(err, oracle.ErrClosed) {
			t.Fatalf("Get(%q) after Close = %v, want ErrClosed", name, err)
		}
		if st := m.Stats(); st.FullDecodes != 0 || st.RehydrateErrors != 0 || st.ColdHits != 0 {
			t.Fatalf("Get(%q) after Close touched the store: full_decodes=%d rehydrate_errors=%d",
				name, st.FullDecodes, st.RehydrateErrors)
		}
	}

	bare := oracle.NewManager(oracle.ManagerConfig{Base: oracle.Config{Algorithm: "test-exact"}})
	mustTenant(t, bare, "alpha", oracle.TenantConfig{})
	bare.Close()
	if _, err := bare.Get("alpha"); !errors.Is(err, oracle.ErrClosed) {
		t.Fatalf("Get after Close without a store = %v, want ErrClosed", err)
	}
}

// TestFaultKillMidBuildRestart: a process that dies with a build in flight
// (and a torn save on disk) restarts into the last durable version.
func TestFaultKillMidBuildRestart(t *testing.T) {
	root := t.TempDir()
	dir, err := store.Open(root)
	if err != nil {
		t.Fatal(err)
	}
	m1 := oracle.NewManager(oracle.ManagerConfig{Base: oracle.Config{Algorithm: "test-hang"}, Store: dir})
	defer m1.Close() // the "killed" process: cancels the hung build last
	alpha := mustTenant(t, m1, "alpha", oracle.TenantConfig{})
	setAndWait(t, alpha, pathGraph(t, 6, 3))
	hangBuilds.Store(true)
	defer hangBuilds.Store(false)
	if _, err := alpha.SetGraph(pathGraph(t, 6, 1)); err != nil {
		t.Fatal(err)
	}
	torn := filepath.Join(root, "alpha", "save-torn.tmp")
	if err := os.WriteFile(torn, []byte("half a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}

	dir2, err := store.Open(root) // the restart: sweeps the torn save
	if err != nil {
		t.Fatal(err)
	}
	m2 := oracle.NewManager(oracle.ManagerConfig{Base: oracle.Config{Algorithm: "test-exact"}, Store: dir2})
	defer m2.Close()
	if restored, failed, err := m2.RestoreAll(nil); err != nil || restored != 1 || failed != 0 {
		t.Fatalf("RestoreAll = (%d, %d, %v), want (1, 0, nil)", restored, failed, err)
	}
	if _, err := os.Stat(torn); !os.IsNotExist(err) {
		t.Fatalf("torn save survived the restart: %v", err)
	}
	tn, err := m2.Get("alpha")
	if err != nil {
		t.Fatal(err)
	}
	if tn.Version() != 1 || lifecycleState(t, m2, "alpha") != "serving" {
		t.Fatalf("restarted alpha serves v%d, want the durable v1", tn.Version())
	}
	expectDist(t, tn, 6, 3)
}

// damage rewrites one persisted file of tenant in place.
func damage(t *testing.T, root, tenant, ext string, f func([]byte) []byte) {
	t.Helper()
	path := filepath.Join(root, tenant, fmt.Sprintf("%016x%s", 1, ext))
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, f(raw), 0o644); err != nil {
		t.Fatal(err)
	}
}

func flipLate(raw []byte) []byte { raw[len(raw)-20] ^= 0x01; return raw }
func truncate(raw []byte) []byte { return raw[:len(raw)/2] }
func scramble(raw []byte) []byte {
	for i := range raw {
		raw[i] ^= 0x5a
	}
	return raw
}

// persistFleet builds pathGraph(8, 2) tenants under names into a fresh
// store and returns its root.
func persistFleet(t *testing.T, names ...string) string {
	t.Helper()
	root := t.TempDir()
	dir, err := store.Open(root)
	if err != nil {
		t.Fatal(err)
	}
	m := oracle.NewManager(oracle.ManagerConfig{Base: oracle.Config{Algorithm: "test-exact"}, Store: dir})
	defer m.Close()
	for _, name := range names {
		setAndWait(t, mustTenant(t, m, name, oracle.TenantConfig{}), pathGraph(t, 8, 2))
	}
	return root
}

// expectFailedLoad asserts name never serves: the restore reported it, Peek
// cannot see it, and every Get fails with the corruption rather than
// handing out a half-loaded tenant.
func expectFailedLoad(t *testing.T, m *oracle.Manager, name string, reported map[string]error) {
	t.Helper()
	if !errors.Is(reported[name], store.ErrCorrupt) {
		t.Fatalf("%s: restore reported %v, want ErrCorrupt", name, reported[name])
	}
	for i := 0; i < 2; i++ {
		if _, err := m.Get(name); !errors.Is(err, store.ErrCorrupt) {
			t.Fatalf("%s: Get = %v, want ErrCorrupt", name, err)
		}
	}
	if got := lifecycleState(t, m, name); got != "evicted" {
		t.Fatalf("%s: state %s, want evicted (on disk, never serving)", name, got)
	}
}

// restoreReporting runs RestoreAll and collects the per-tenant errors.
func restoreReporting(t *testing.T, m *oracle.Manager) (int, map[string]error) {
	t.Helper()
	reported := map[string]error{}
	restored, _, err := m.RestoreAll(func(name string, err error) { reported[name] = err })
	if err != nil {
		t.Fatal(err)
	}
	return restored, reported
}

// TestFaultCorruptSnapshotHot: a bit-flipped or truncated .snap fails its
// checksum on the decode path, is reported, and never serves; a scrambled
// .idx sidecar is irrelevant to a hot load.
func TestFaultCorruptSnapshotHot(t *testing.T) {
	root := persistFleet(t, "good", "flip", "trunc", "idx")
	damage(t, root, "flip", ".snap", flipLate)
	damage(t, root, "trunc", ".snap", truncate)
	damage(t, root, "idx", ".idx", scramble)
	dir, err := store.Open(root)
	if err != nil {
		t.Fatal(err)
	}
	m := oracle.NewManager(oracle.ManagerConfig{Base: oracle.Config{Algorithm: "test-exact"}, Store: dir})
	defer m.Close()
	restored, reported := restoreReporting(t, m)
	if restored != 2 {
		t.Fatalf("restored %d, want good and idx", restored)
	}
	expectFailedLoad(t, m, "flip", reported)
	expectFailedLoad(t, m, "trunc", reported)
	for _, name := range []string{"good", "idx"} {
		tn, err := m.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		expectDist(t, tn, 8, 2)
	}
	checkAccounting(t, m)
}

// TestFaultCorruptSnapshotCold: with no budget headroom every tenant loads
// cold. A truncated .snap fails the cold open's size check and then the
// decode, so it is reported and never serves; a scrambled .idx is rebuilt
// from the snapshot header and serves the right answers.
func TestFaultCorruptSnapshotCold(t *testing.T) {
	root := persistFleet(t, "good", "trunc", "trunc-idx", "idx")
	damage(t, root, "trunc", ".snap", truncate)
	damage(t, root, "trunc-idx", ".snap", truncate)
	damage(t, root, "trunc-idx", ".idx", scramble)
	damage(t, root, "idx", ".idx", scramble)
	dir, err := store.Open(root)
	if err != nil {
		t.Fatal(err)
	}
	m := coldManager(dir, 4, 2)
	defer m.Close()
	restored, reported := restoreReporting(t, m)
	if restored != 2 {
		t.Fatalf("restored %d, want good and idx", restored)
	}
	expectFailedLoad(t, m, "trunc", reported)
	expectFailedLoad(t, m, "trunc-idx", reported)
	for _, name := range []string{"good", "idx"} {
		tn, err := m.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		if tier := tn.Stats().Tier; tier != "cold" {
			t.Fatalf("%s serves %s, want cold", name, tier)
		}
		expectDist(t, tn, 8, 2)
	}
	checkAccounting(t, m)
}

// demotedPair hosts alpha and beta (32 nodes each) in a 40-node budget:
// beta's admission demoted alpha to cold.
func demotedPair(t *testing.T, maxGraphs int) (*oracle.Manager, *store.Dir) {
	t.Helper()
	dir := openStore(t)
	m := oracle.NewManager(oracle.ManagerConfig{
		Base:          oracle.Config{Algorithm: "test-exact"},
		Store:         dir,
		Cold:          tier.NewStore(dir),
		ColdCacheRows: 4,
		MaxTotalNodes: 40,
		MaxGraphs:     maxGraphs,
	})
	setAndWait(t, mustTenant(t, m, "alpha", oracle.TenantConfig{}), pathGraph(t, 32, 3))
	setAndWait(t, mustTenant(t, m, "beta", oracle.TenantConfig{}), pathGraph(t, 32, 1))
	if tn, err := m.Peek("alpha"); err != nil || tn.Stats().Tier != "cold" {
		t.Fatalf("setup: alpha not demoted (%v)", err)
	}
	return m, dir
}

// promoteErrOK reports whether err is an outcome Promote may legitimately
// have when its tenant is evicted underneath it.
func promoteErrOK(err error) bool {
	return err == nil || errors.Is(err, oracle.ErrTenantNotFound) || errors.Is(err, oracle.ErrClosed) ||
		errors.Is(err, oracle.ErrSuperseded) || errors.Is(err, oracle.ErrOverCapacity)
}

// TestFaultDeleteRacingPromote: Delete wins over a concurrent Promote —
// the name ends absent with no files — whatever the interleaving. Promote
// itself may succeed or fail in any way the deletion under it explains
// (its files can vanish mid-decode).
func TestFaultDeleteRacingPromote(t *testing.T) {
	for i := 0; i < 4; i++ {
		m, dir := demotedPair(t, 0)
		var wg sync.WaitGroup
		var derr error
		wg.Add(2)
		go func() { defer wg.Done(); _ = m.Promote("alpha") }()
		go func() { defer wg.Done(); derr = m.Delete("alpha") }()
		wg.Wait()
		if derr != nil {
			t.Fatalf("Delete = %v", derr)
		}
		if got := lifecycleState(t, m, "alpha"); got != "absent" {
			t.Fatalf("deleted alpha is %s", got)
		}
		if vs, err := dir.Versions("alpha"); err != nil || len(vs) != 0 {
			t.Fatalf("alpha's files survived Delete: %v, %v", vs, err)
		}
		if _, err := m.Get("alpha"); !errors.Is(err, oracle.ErrTenantNotFound) {
			t.Fatalf("deleted alpha resurrected: %v", err)
		}
		beta, err := m.Get("beta")
		if err != nil {
			t.Fatal(err)
		}
		expectDist(t, beta, 32, 1)
		checkAccounting(t, m)
		m.Close()
	}
}

// TestFaultEvictionRacingPromote: a Create that needs a slot races alpha's
// promotion. Whoever loses, every tenant ends serving correct answers or
// evicted-but-persisted, and the budgets add up.
func TestFaultEvictionRacingPromote(t *testing.T) {
	gamma := pathGraph(t, 4, 5)
	for i := 0; i < 4; i++ {
		m, _ := demotedPair(t, 2)
		var wg sync.WaitGroup
		var perr, cerr error
		wg.Add(2)
		go func() { defer wg.Done(); perr = m.Promote("alpha") }()
		go func() {
			defer wg.Done()
			var tn *oracle.Tenant
			if tn, cerr = m.Create("gamma", oracle.TenantConfig{}); cerr == nil {
				_, cerr = tn.SetGraph(gamma)
			}
		}()
		wg.Wait()
		if !promoteErrOK(perr) || (cerr != nil && !errors.Is(cerr, oracle.ErrOverCapacity) && !errors.Is(cerr, oracle.ErrTenantNotFound)) {
			t.Fatalf("Promote = %v, Create+SetGraph = %v", perr, cerr)
		}
		for name, w := range map[string]int64{"alpha": 3, "beta": 1} {
			switch got := lifecycleState(t, m, name); got {
			case "serving":
				tn, _ := m.Peek(name)
				expectDist(t, tn, 32, w)
			case "evicted":
			default:
				t.Fatalf("%s is %s after the race", name, got)
			}
		}
		checkAccounting(t, m)
		m.Close()
	}
}

// TestFaultGetDeleteEvictStorm hammers a store-backed two-slot manager
// with Gets, Deletes and re-creates over four names. Every answer served
// must be exact; afterwards every name is in a named state, the budgets add
// up, and a final Delete leaves nothing to resurrect.
func TestFaultGetDeleteEvictStorm(t *testing.T) {
	dir := openStore(t)
	m := oracle.NewManager(oracle.ManagerConfig{
		MaxGraphs: 2,
		Base:      oracle.Config{Algorithm: "test-exact"},
		Store:     dir,
	})
	defer m.Close()
	names := []string{"a", "b", "c", "d"}
	weight := func(name string) int64 { return int64(name[0]-'a') + 1 }
	graphs := map[string]*cliqueapsp.Graph{}
	for _, name := range names {
		graphs[name] = pathGraph(t, 6, weight(name))
		setAndWait(t, mustTenant(t, m, name, oracle.TenantConfig{}), graphs[name])
	}

	var wg sync.WaitGroup
	errc := make(chan error, 4)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 60; i++ {
				name := names[rng.Intn(len(names))]
				switch op := rng.Intn(6); {
				case op == 0:
					if err := m.Delete(name); err != nil && !errors.Is(err, oracle.ErrTenantNotFound) {
						errc <- fmt.Errorf("Delete(%s): %w", name, err)
						return
					}
				case op == 1:
					tn, err := m.Create(name, oracle.TenantConfig{})
					if err == nil {
						_, err = tn.SetGraph(graphs[name])
					}
					// A re-create loses races with Create, Delete and eviction
					// in all the ways those explain.
					if err != nil && !errors.Is(err, oracle.ErrTenantExists) && !errors.Is(err, oracle.ErrClosed) &&
						!errors.Is(err, oracle.ErrTenantNotFound) && !errors.Is(err, oracle.ErrOverCapacity) {
						errc <- fmt.Errorf("Create(%s): %w", name, err)
						return
					}
				default:
					tn, err := m.Get(name)
					if err != nil {
						if !errors.Is(err, oracle.ErrTenantNotFound) && !errors.Is(err, oracle.ErrOverCapacity) {
							errc <- fmt.Errorf("Get(%s): %w", name, err)
							return
						}
						continue
					}
					dr, err := tn.Dist(0, 5)
					if err != nil && !errors.Is(err, oracle.ErrNotReady) {
						errc <- fmt.Errorf("Dist(%s): %w", name, err)
						return
					}
					if err == nil && dr.Distance != 5*weight(name) {
						errc <- fmt.Errorf("%s answered %d, want %d", name, dr.Distance, 5*weight(name))
						return
					}
				}
			}
		}(int64(w))
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	for _, name := range names {
		if got := lifecycleState(t, m, name); got != "serving" && got != "evicted" && got != "absent" {
			t.Fatalf("%s in unnamed state %q", name, got)
		}
	}
	checkAccounting(t, m)
	for _, name := range names {
		if err := m.Delete(name); err != nil && !errors.Is(err, oracle.ErrTenantNotFound) {
			t.Fatal(err)
		}
		if _, err := m.Get(name); !errors.Is(err, oracle.ErrTenantNotFound) {
			t.Fatalf("deleted %s resurrected: %v", name, err)
		}
	}
	if tenants, err := dir.Tenants(); err != nil || len(tenants) != 0 {
		t.Fatalf("store after deleting everything: %v, %v", tenants, err)
	}
}
