package main

import (
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/congestedclique/cliqueapsp/store"
)

// tenantRoute is the tenant a non-admin key must be scoped to for r, or
// false for a request that is not tenant-scoped, as the route table
// declares it.
func tenantRoute(r *http.Request) (string, bool) {
	m := parseRoute(r.Method, r.URL.Path)
	if m.access != accessTenant {
		return "", false
	}
	return m.tenant, true
}

// TestRouteTableHTTP drives every row of the route table, legacy aliases
// included, through a real server under -keys: a method the route does not
// serve is a 405 naming the route's methods in Allow, the request counter
// carries the route's label, and a tenant key reaches exactly the rows
// scoped to its tenant.
func TestRouteTableHTTP(t *testing.T) {
	dir := t.TempDir()
	keysPath := filepath.Join(dir, "keys.json")
	if err := os.WriteFile(keysPath, []byte(`{"admin":"root-key","tenants":{`+
		`"alpha":{"key":"alpha-key"},"default":{"key":"default-key"}}}`), fs.FileMode(0o600)); err != nil {
		t.Fatal(err)
	}
	keys, err := loadKeyring(keysPath, testLogger(t))
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(defaultLimits())
	cfg.keys = keys
	base := startServer(t, cfg)
	authJSON(t, http.MethodPost, base+"/v1/graphs", "root-key", "application/json",
		`{"name":"alpha"}`, http.StatusCreated, nil)

	for _, tc := range []struct {
		path, label string
		allow       string // the route's methods; "" = it serves every method
		access      access
		key         string // the tenant key the path's tenant holds
	}{
		{"/healthz", "/healthz", "", accessOpen, ""},
		{"/metrics", "/metrics", "", accessAdmin, "alpha-key"},
		{"/debug/pprof/", "/debug/pprof/", "", accessAdmin, "alpha-key"},
		{"/v1/stats", "/v1/stats", "GET", accessAdmin, "default-key"},
		{"/v1/traces", "/v1/traces", "GET", accessAdmin, "alpha-key"},
		{"/v1/traces/4bf92f3577b34da6a3ce929d0e0e4736", "/v1/traces/{id}", "GET", accessAdmin, "alpha-key"},
		{"/v1/graphs", "/v1/graphs", "GET, POST", accessAdmin, "alpha-key"},
		{"/v1/graphs/alpha", "/v1/graphs/{name}", "GET, DELETE", accessTenant, "alpha-key"},
		{"/v1/graphs/alpha/dist", "/v1/graphs/{name}/dist", "GET", accessTenant, "alpha-key"},
		{"/v1/graphs/alpha/batch", "/v1/graphs/{name}/batch", "POST", accessTenant, "alpha-key"},
		{"/v1/graphs/alpha/path", "/v1/graphs/{name}/path", "GET", accessTenant, "alpha-key"},
		{"/v1/graphs/alpha/graph", "/v1/graphs/{name}/graph", "POST", accessTenant, "alpha-key"},
		{"/v1/graphs/alpha/edges", "/v1/graphs/{name}/edges", "PATCH", accessTenant, "alpha-key"},
		{"/v1/graphs/alpha/promote", "/v1/graphs/{name}/promote", "POST", accessAdmin, "alpha-key"},
		{"/v1/graphs/alpha/stats", "/v1/graphs/{name}/stats", "GET", accessTenant, "alpha-key"},
		{"/v1/dist", "/v1/dist", "GET", accessTenant, "default-key"},
		{"/v1/batch", "/v1/batch", "POST", accessTenant, "default-key"},
		{"/v1/path", "/v1/path", "GET", accessTenant, "default-key"},
		{"/v1/graph", "/v1/graph", "POST", accessTenant, "default-key"},
	} {
		// The probe method: one the route does not serve, or any for a
		// route that serves them all.
		method, want := http.MethodPut, http.StatusMethodNotAllowed
		if tc.allow == "" {
			method, want = http.MethodGet, http.StatusOK
			if tc.path == "/healthz" {
				want = http.StatusServiceUnavailable // the default tenant has no graph
			}
		}
		resp := doAuth(t, method, base+tc.path, "root-key", "", "")
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != want || resp.Header.Get("Allow") != tc.allow {
			t.Errorf("%s %s: status %d, Allow %q; want %d, %q",
				method, tc.path, resp.StatusCode, resp.Header.Get("Allow"), want, tc.allow)
		}
		// Probes and scrapes of the every-method routes may repeat; a 405
		// happens once per route.
		series := fmt.Sprintf(`ccserve_requests_total{route=%q,method=%q,status="%d"}`, tc.label, method, want)
		if v := metricValue(t, scrape(t, base, "root-key"), series); v != 1 && (tc.allow != "" || v < 1) {
			t.Errorf("%s = %v, want 1", series, v)
		}

		// Access: the open route needs no key; an admin-only one refuses
		// the tenant key; a tenant-scoped one lets it through to the 405.
		key, wantAuth := tc.key, want
		switch tc.access {
		case accessOpen:
			key = ""
		case accessAdmin:
			wantAuth = http.StatusForbidden
		}
		resp = doAuth(t, method, base+tc.path, key, "", "")
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != wantAuth {
			t.Errorf("%s %s with key %q: status %d, want %d", method, tc.path, key, resp.StatusCode, wantAuth)
		}
	}

	// Every row is covered above: a route added to the table without a
	// case here fails.
	covered := make(map[string]bool)
	for _, label := range []string{"/healthz", "/metrics", "/debug/pprof/", "/v1/stats", "/v1/traces",
		"/v1/traces/{id}", "/v1/graphs", "/v1/graphs/{name}", "/v1/graphs/{name}/dist",
		"/v1/graphs/{name}/batch", "/v1/graphs/{name}/path", "/v1/graphs/{name}/graph",
		"/v1/graphs/{name}/edges", "/v1/graphs/{name}/promote", "/v1/graphs/{name}/stats",
		"/v1/dist", "/v1/batch", "/v1/path", "/v1/graph"} {
		covered[label] = true
	}
	for _, rt := range routes {
		if !covered[rt.path] || rt.legacy != "" && !covered[rt.legacy] {
			t.Errorf("route %s %s (legacy %q) has no case in this test", rt.method, rt.path, rt.legacy)
		}
	}
}

// TestServerProbeFailureIs500: when the disk probe for a tenant's persisted
// snapshots fails (here a regular file sits where its snapshot directory
// belongs), the tenant cannot be declared absent. The summary and stats
// routes both answer 500, never the 404 that steers a client into a
// re-create replacing a persisted incarnation.
func TestServerProbeFailureIs500(t *testing.T) {
	dir := t.TempDir()
	snapshots, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "ghost"), []byte("not a snapshot directory"), 0o600); err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(defaultLimits())
	cfg.snapshots = snapshots
	base := startServer(t, cfg)
	for _, path := range []string{"/v1/graphs/ghost", "/v1/graphs/ghost/stats"} {
		var body errorBody
		getJSON(t, base+path, http.StatusInternalServerError, &body)
		if !strings.Contains(body.Error, `probing persisted snapshots of "ghost"`) {
			t.Errorf("GET %s: error %q does not name the failed probe", path, body.Error)
		}
	}
}

// TestServerStatsSmoke checks the stats surfaces after real traffic on a
// logapprox fleet: a named tenant plus a legacy single-graph upload.
// /v1/stats carries the manager aggregate, the per-tenant breakdown, the
// legacy flat fields and the process section; /metrics is well-formed and
// reflects the traffic; every response carries an X-Request-Id.
func TestServerStatsSmoke(t *testing.T) {
	cfg := testConfig(defaultLimits())
	cfg.base.Algorithm = "logapprox"
	base := startServer(t, cfg)
	getJSON(t, base+"/v1/stats", http.StatusOK, nil)
	postJSON(t, base+"/v1/graphs", "application/json", `{"name":"alpha","algorithm":"logapprox"}`,
		http.StatusCreated, nil)
	postJSON(t, base+"/v1/graphs/alpha/graph?wait=1", "application/json",
		`{"n":4,"edges":[[0,1,3],[1,2,1],[2,3,2]]}`, http.StatusOK, nil)
	postJSON(t, base+"/v1/graph?wait=1", "application/json",
		`{"n":3,"edges":[[0,1,2],[1,2,2]]}`, http.StatusOK, nil)

	var stats struct {
		HTTPRequests *uint64 `json:"http_requests"`
		Version      uint64  `json:"version"`
		GraphN       int     `json:"graph_n"`
		Manager      struct {
			Graphs    int  `json:"graphs"`
			Evictions *int `json:"evictions"`
			Tenants   []struct {
				Name   string `json:"name"`
				Pinned bool   `json:"pinned"`
				Oracle struct {
					GraphN int `json:"graph_n"`
				} `json:"oracle"`
			} `json:"tenants"`
		} `json:"manager"`
		Process processStats `json:"process"`
	}
	getJSON(t, base+"/v1/stats", http.StatusOK, &stats)
	if stats.Manager.Graphs != 2 || stats.Manager.Evictions == nil || *stats.Manager.Evictions < 0 ||
		stats.HTTPRequests == nil || stats.Version < 1 || stats.GraphN != 3 || len(stats.Manager.Tenants) != 2 {
		t.Errorf("stats: graphs %d, evictions %v, http_requests %v, version %d, graph_n %d, %d tenants",
			stats.Manager.Graphs, stats.Manager.Evictions, stats.HTTPRequests,
			stats.Version, stats.GraphN, len(stats.Manager.Tenants))
	}
	alphaN, defaultPinned := -1, false
	for _, ts := range stats.Manager.Tenants {
		switch ts.Name {
		case "alpha":
			alphaN = ts.Oracle.GraphN
		case defaultTenant:
			defaultPinned = ts.Pinned
		}
	}
	if alphaN != 4 || !defaultPinned {
		t.Errorf("tenants: alpha graph_n %d (want 4), default pinned %v (want true)", alphaN, defaultPinned)
	}
	if ps := stats.Process; ps.GoVersion == "" || ps.Goroutines <= 0 || ps.UptimeSeconds <= 0 ||
		ps.GOMAXPROCS < 1 || ps.OpenFDs < 1 {
		t.Errorf("process section %+v", ps)
	}

	text := scrape(t, base, "")
	// Every sample line's family has a TYPE line.
	typed := make(map[string]bool)
	for _, line := range strings.Split(text, "\n") {
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			typed[strings.Fields(rest)[0]] = true
		}
	}
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, "#") || strings.TrimSpace(line) == "" {
			continue
		}
		name := line[:strings.IndexAny(line+" ", "{ ")]
		family := name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if f, ok := strings.CutSuffix(name, suffix); ok {
				family = f
				break
			}
		}
		if !typed[name] && !typed[family] {
			t.Errorf("untyped: %s", name)
		}
	}
	for series, atLeast := range map[string]float64{
		`ccserve_process{stat="gomaxprocs"}`:                                                              1,
		`ccserve_requests_total{route="/v1/graph",method="POST",status="200"}`:                            1,
		`ccserve_request_duration_seconds_bucket{route="/v1/graphs/{name}/graph",status="200",le="+Inf"}`: 1,
		`ccserve_tenant_requests_total{tenant="alpha",outcome="served"}`:                                  1,
		`ccserve_rebuilds_total{result="ok"}`:                                                             1,
	} {
		if v := metricValue(t, text, series); v < atLeast {
			t.Errorf("%s = %v, want >= %v", series, v, atLeast)
		}
	}
	if v := metricValue(t, text, `ccserve_manager{stat="graphs"}`); v != 2 {
		t.Errorf("manager graphs = %v, want 2", v)
	}
	if !strings.Contains("\n"+text, "\nccserve_build_info{") {
		t.Error("exposition lacks a ccserve_build_info sample")
	}

	for _, id := range []string{"", "ci-trace-1"} {
		req, err := http.NewRequest(http.MethodGet, base+"/healthz", nil)
		if err != nil {
			t.Fatal(err)
		}
		if id != "" {
			req.Header.Set("X-Request-Id", id)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if got := resp.Header.Get("X-Request-Id"); got == "" || id != "" && got != id {
			t.Errorf("X-Request-Id sent %q, echoed %q", id, got)
		}
	}
}
