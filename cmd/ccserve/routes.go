package main

import (
	"fmt"
	"net/http"
	"net/http/pprof"
	"net/url"
	"path"
	"strings"

	"github.com/congestedclique/cliqueapsp/oracle"
	"github.com/congestedclique/cliqueapsp/store"
)

// access is who may call a route once -keys is set. The zero value is the
// strictest, so a row that forgets to declare it stays admin-only.
type access uint8

const (
	accessAdmin  access = iota // the admin key alone
	accessTenant               // the admin key, or the key of the tenant the path names
	accessOpen                 // anyone: liveness probes carry no credentials
)

// route is one row of the route table: everything ccserve knows about a
// path template and method, declared once.
type route struct {
	method string // "" = any method
	path   string // path template; also the route label of every metric
	// legacy is the single-graph alias of a tenant route: the same row,
	// bound to the pinned default tenant and labelled with this path.
	legacy string
	access access
	peek   bool // resolve the tenant with Peek: monitoring must not refresh LRU recency
	quiet  bool // log completions at debug: one line per probe or scrape would drown the log
	// Exactly one of serve and handle is set. serve runs on the tenant the
	// path names, resolved by the dispatcher; handle gets the bare request
	// and that tenant's name ("" off the tenant routes).
	serve  func(*server, http.ResponseWriter, *http.Request, *oracle.Tenant)
	handle func(*server, http.ResponseWriter, *http.Request, string)
}

const (
	tenantRoot = "/v1/graphs/" // every path below it names a tenant
	tenantPath = tenantRoot + "{name}"
	traceRoot  = "/v1/traces/"
	pprofRoot  = "/debug/pprof/"
)

// routes is the route table. Rows sharing a path template list their
// methods in the order the Allow header of a 405 names them.
var routes = []route{
	{path: "/healthz", access: accessOpen, quiet: true, handle: plain((*server).handleHealthz)},
	{path: "/metrics", quiet: true, handle: plain((*server).handleMetrics)},
	{path: pprofRoot, handle: plain((*server).handlePprof)},
	{method: http.MethodGet, path: "/v1/stats", handle: plain((*server).handleStats)},
	{method: http.MethodGet, path: "/v1/traces", handle: plain((*server).handleTraces)},
	{method: http.MethodGet, path: traceRoot + "{id}", handle: plain((*server).handleTraceByID)},
	{method: http.MethodGet, path: "/v1/graphs", handle: plain((*server).listTenants)},
	{method: http.MethodPost, path: "/v1/graphs", handle: plain((*server).createTenant)},
	{method: http.MethodGet, path: tenantPath, access: accessTenant, peek: true, serve: (*server).showTenant},
	{method: http.MethodDelete, path: tenantPath, handle: (*server).deleteTenant},
	{method: http.MethodGet, path: tenantPath + "/dist", legacy: "/v1/dist", access: accessTenant, serve: (*server).dist},
	{method: http.MethodPost, path: tenantPath + "/batch", legacy: "/v1/batch", access: accessTenant, serve: (*server).batch},
	{method: http.MethodGet, path: tenantPath + "/path", legacy: "/v1/path", access: accessTenant, serve: (*server).path},
	{method: http.MethodPost, path: tenantPath + "/graph", legacy: "/v1/graph", access: accessTenant, serve: (*server).uploadGraph},
	{method: http.MethodPatch, path: tenantPath + "/edges", access: accessTenant, serve: (*server).patchEdges},
	// Promotion claims fleet memory back from other tenants: an operator
	// policy decision, not something a tenant key may trigger.
	{method: http.MethodPost, path: tenantPath + "/promote", serve: (*server).promoteTenant},
	{method: http.MethodGet, path: tenantPath + "/stats", access: accessTenant, peek: true, serve: (*server).tenantStats},
}

// plain adapts a handler that needs no tenant name.
func plain(h func(*server, http.ResponseWriter, *http.Request)) func(*server, http.ResponseWriter, *http.Request, string) {
	return func(s *server, w http.ResponseWriter, r *http.Request, _ string) { h(s, w, r) }
}

// byPath indexes the rows by literal path (legacy aliases included), byOp
// the tenant rows by what follows /v1/graphs/{name}/ ("" for the tenant
// itself).
var byPath, byOp = indexRoutes()

func indexRoutes() (byPath, byOp map[string][]*route) {
	byPath, byOp = make(map[string][]*route), make(map[string][]*route)
	for i := range routes {
		rt := &routes[i]
		index, key := byPath, rt.path
		if op, ok := strings.CutPrefix(rt.path, tenantPath); ok {
			index, key = byOp, strings.TrimPrefix(op, "/")
		}
		index[key] = append(index[key], rt)
		if rt.legacy != "" {
			byPath[rt.legacy] = append(byPath[rt.legacy], rt)
		}
	}
	return byPath, byOp
}

// match is a request parsed against the route table. ServeHTTP parses each
// request once; auth, dispatch, the metric labels and the per-tenant
// outcome counter all read the match.
type match struct {
	rows       []*route // the rows of the path's template; nil off the table
	row        *route   // the row serving the request's method; nil if none does
	label      string   // metric route label: the template, the legacy path, or "other"
	tenant     string   // the tenant the path names (the default one behind a legacy alias)
	access     access   // accessTenant: a key for tenant may make this request
	tenantTree bool     // below /v1/graphs/, where a path no row serves is a JSON 404
}

func parseRoute(method, p string) match {
	m := match{label: "other", rows: byPath[p]}
	switch {
	case m.rows != nil:
		m.label = p
		if m.rows[0].legacy == p {
			m.tenant = defaultTenant
		}
	case strings.HasPrefix(p, pprofRoot):
		m.rows, m.label = byPath[pprofRoot], pprofRoot
	case strings.HasPrefix(p, traceRoot):
		m.rows = byPath[traceRoot+"{id}"]
		if p != traceRoot {
			m.label = m.rows[0].path
		}
	case strings.HasPrefix(p, tenantRoot):
		m.tenantTree = true
		if rest := p[len(tenantRoot):]; rest != "" {
			var op string
			m.tenant, op, _ = strings.Cut(rest, "/")
			if m.rows = byOp[op]; m.rows != nil {
				m.label = m.rows[0].path
			} else {
				m.access = accessTenant // an unknown op still names the tenant
			}
		}
	}
	for _, rt := range m.rows {
		if rt.method == "" || rt.method == method {
			m.row, m.access = rt, rt.access
			break
		}
		// A 405 reveals no more than the Allow list, so whoever may call
		// one of the template's rows may see it.
		m.access = max(m.access, rt.access)
	}
	if m.tenantTree && method == http.MethodDelete {
		m.access = accessAdmin // deleting tenants is the admin's call
	}
	return m
}

// dispatch serves an authorized request through its match.
func (s *server) dispatch(w http.ResponseWriter, r *http.Request, m match) {
	switch {
	case muxRedirect(w, r):
	case m.tenantTree && (m.rows == nil || !store.ValidTenantName(m.tenant)):
		s.writeJSON(w, http.StatusNotFound, errorBody{Error: fmt.Sprintf("no route %s", r.URL.Path)})
	case m.row == nil && m.rows != nil:
		var methods []string
		for _, rt := range m.rows {
			methods = append(methods, rt.method)
		}
		allow := strings.Join(methods, ", ")
		w.Header().Set("Allow", allow)
		s.writeJSON(w, http.StatusMethodNotAllowed, errorBody{Error: fmt.Sprintf("use %s %s", allow, r.URL.Path)})
	case m.row == nil:
		http.NotFound(w, r)
	case m.row.handle != nil:
		m.row.handle(s, w, r, m.tenant)
	case !m.tenantTree: // a legacy alias
		m.row.serve(s, w, r, s.def)
	default:
		s.serveTenant(w, r, m.row, m.tenant)
	}
}

// serveTenant resolves the tenant a /v1/graphs/{name} row names and serves
// the row on it.
func (s *server) serveTenant(w http.ResponseWriter, r *http.Request, rt *route, name string) {
	resolve := s.mgr.Get
	if rt.peek {
		resolve = s.mgr.Peek
	}
	t, err := resolve(name)
	if err == nil {
		rt.serve(s, w, r, t)
		return
	}
	if rt.peek {
		// An evicted but persisted tenant still exists (the next query
		// rehydrates it) although Peek cannot see it. A 404 here, or on a
		// probe that could not tell, would steer the client into a
		// re-create that replaces the persisted incarnation.
		onDisk, perr := s.mgr.Persisted(name)
		if perr != nil {
			s.fail(w, r, http.StatusInternalServerError, fmt.Errorf("probing persisted snapshots of %q: %w", name, perr))
			return
		}
		if onDisk {
			s.writeJSON(w, http.StatusOK, tenantSummary{Name: name, Evicted: true, Tier: "cold"})
			return
		}
	}
	// fail() maps a genuinely absent tenant to 404; anything else — a
	// corrupt snapshot or I/O failure during rehydration — is a server
	// fault the client must not mistake for "no such tenant".
	s.fail(w, r, http.StatusInternalServerError, err)
}

// muxRedirect answers, as http.ServeMux does, the requests it would not
// route as written: "*" is a 400, a non-canonical path redirects to its
// clean form, and the bare pprof root to its subtree. It reports whether
// it answered.
func muxRedirect(w http.ResponseWriter, r *http.Request) bool {
	if r.RequestURI == "*" {
		if r.ProtoAtLeast(1, 1) {
			w.Header().Set("Connection", "close")
		}
		w.WriteHeader(http.StatusBadRequest)
		return true
	}
	p := r.URL.Path
	if r.Method != http.MethodConnect { // CONNECT paths are not canonicalized
		p = cleanPath(p)
	}
	if p == strings.TrimSuffix(pprofRoot, "/") {
		p = pprofRoot
	}
	if p == r.URL.Path {
		return false
	}
	u := url.URL{Path: p, RawQuery: r.URL.RawQuery}
	http.Redirect(w, r, u.String(), http.StatusMovedPermanently)
	return true
}

// cleanPath is path.Clean for request paths: rooted, trailing slash kept.
func cleanPath(p string) string {
	if p == "" || p[0] != '/' {
		p = "/" + p
	}
	np := path.Clean(p)
	if p[len(p)-1] == '/' && np != "/" {
		np += "/"
	}
	return np
}

// pprofByName holds the net/http/pprof endpoints that are not runtime
// profiles; pprof.Index serves the index page and every named profile.
var pprofByName = map[string]http.HandlerFunc{
	"cmdline": pprof.Cmdline, "profile": pprof.Profile, "symbol": pprof.Symbol, "trace": pprof.Trace,
}

func (s *server) handlePprof(w http.ResponseWriter, r *http.Request) {
	if h := pprofByName[strings.TrimPrefix(r.URL.Path, pprofRoot)]; h != nil {
		h(w, r)
		return
	}
	pprof.Index(w, r)
}
