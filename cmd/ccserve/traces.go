package main

// The trace inspection surface: GET /v1/traces (recent roots) and
// GET /v1/traces/{id} (one trace as a span tree). With -keys set both are
// admin-only, like /metrics and /debug/pprof/.

import (
	"context"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"github.com/congestedclique/cliqueapsp/obs/trace"
)

// traceSummary is one row of the /v1/traces listing: enough to pick a
// trace worth opening without shipping every span of every trace.
type traceSummary struct {
	ID         string    `json:"id"`
	Name       string    `json:"name"` // root span name, e.g. "GET /v1/dist"
	Tenant     string    `json:"tenant,omitempty"`
	Status     int       `json:"status,omitempty"`
	Error      string    `json:"error,omitempty"`
	Start      time.Time `json:"start"`
	DurationNS int64     `json:"duration_ns"`
	Spans      int       `json:"spans"`
	Dropped    int       `json:"dropped,omitempty"`
}

func summarizeTrace(tr *trace.Trace) traceSummary {
	sum := traceSummary{ID: tr.ID.String(), Spans: len(tr.Spans), Dropped: tr.Dropped}
	root := tr.Root()
	if root == nil {
		return sum
	}
	sum.Name = root.Name
	sum.Status = root.Status
	sum.Error = root.Error
	sum.Start = root.Start
	sum.DurationNS = int64(root.Duration)
	for _, a := range root.Attrs {
		if a.Key == "tenant" {
			sum.Tenant = a.Value
		}
	}
	return sum
}

// GET /v1/traces?limit=N — recent completed traces, newest first.
func (s *server) handleTraces(w http.ResponseWriter, r *http.Request) {
	limit := 50
	if raw := r.URL.Query().Get("limit"); raw != "" {
		n, err := strconv.Atoi(raw)
		if err != nil || n < 1 {
			s.fail(w, r, http.StatusBadRequest, fmt.Errorf("limit %q: want a positive integer", raw))
			return
		}
		limit = n
	}
	recent := s.traces.Recent(limit)
	out := struct {
		Count    int            `json:"count"`
		Capacity int            `json:"capacity"`
		Traces   []traceSummary `json:"traces"`
	}{Capacity: s.traces.Capacity(), Traces: make([]traceSummary, len(recent))}
	for i, tr := range recent {
		out.Traces[i] = summarizeTrace(tr)
	}
	out.Count = len(out.Traces)
	s.writeJSON(w, http.StatusOK, out)
}

// spanNode is one span with its children nested — the tree shape a
// flame view renders directly.
type spanNode struct {
	trace.SpanRecord
	Children []*spanNode `json:"children,omitempty"`
}

// spanTree nests a trace's flat span records under their parents.
// Orphans (a parent dropped over the per-trace cap) surface at the top
// level rather than vanishing.
func spanTree(spans []trace.SpanRecord) []*spanNode {
	nodes := make(map[string]*spanNode, len(spans))
	for _, rec := range spans {
		nodes[rec.SpanID] = &spanNode{SpanRecord: rec}
	}
	var roots []*spanNode
	for _, rec := range spans {
		n := nodes[rec.SpanID]
		if p, ok := nodes[rec.ParentID]; ok && rec.ParentID != rec.SpanID {
			p.Children = append(p.Children, n)
		} else {
			roots = append(roots, n)
		}
	}
	return roots
}

// GET /v1/traces/{id} — one trace as a span tree.
func (s *server) handleTraceByID(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/v1/traces/")
	if rest == "" || strings.Contains(rest, "/") {
		s.writeJSON(w, http.StatusNotFound, errorBody{Error: fmt.Sprintf("no route %s", r.URL.Path)})
		return
	}
	id, ok := trace.ParseTraceID(rest)
	if !ok {
		s.fail(w, r, http.StatusBadRequest,
			fmt.Errorf("trace id %q: want 32 lowercase hex characters", rest))
		return
	}
	tr, ok := s.traces.Get(id)
	if !ok {
		s.writeJSON(w, http.StatusNotFound,
			errorBody{Error: fmt.Sprintf("trace %s not retained (the store keeps the most recent %d)", rest, s.traces.Capacity())})
		return
	}
	s.writeJSON(w, http.StatusOK, struct {
		ID      string      `json:"id"`
		Dropped int         `json:"dropped,omitempty"`
		Spans   []*spanNode `json:"spans"`
	}{ID: tr.ID.String(), Dropped: tr.Dropped, Spans: spanTree(tr.Spans)})
}

// traceIDFrom recovers the active span's trace ID for log correlation
// ("" on an unsampled request — allocation-free in that case).
func traceIDFrom(ctx context.Context) string {
	if sp := trace.FromContext(ctx); sp != nil {
		return sp.TraceID().String()
	}
	return ""
}
