package main

import (
	"bytes"
	"fmt"
	"net/http"
	"sync"
	"time"
)

// deadline returns a done function for until that fires after d.
func deadline(d time.Duration) func() bool {
	end := time.Now().Add(d)
	return func() bool { return !time.Now().Before(end) }
}

// opTimeout bounds one query; a query that takes longer fails.
const opTimeout = 10 * time.Second

// kept is a response body that differed from the last one seen for the
// same request, so it still has to be checked.
type kept struct {
	req  int
	body []byte
}

// opLog accumulates one connection's query outcomes.
type opLog struct {
	lat    [numOps][]time.Duration
	end    [numOps][]int64 // completion times, Unix nanoseconds
	bytes  [numOps]int64
	issued int
	failed int
	msgs   []string
	kept   []kept
}

func (l *opLog) fail(format string, args ...any) {
	l.failed++
	if len(l.msgs) < 10 {
		l.msgs = append(l.msgs, fmt.Sprintf(format, args...))
	}
}

func (l *opLog) merge(o *opLog) {
	for k := range l.lat {
		l.lat[k] = append(l.lat[k], o.lat[k]...)
		l.end[k] = append(l.end[k], o.end[k]...)
		l.bytes[k] += o.bytes[k]
	}
	l.issued += o.issued
	l.failed += o.failed
	for _, m := range o.msgs {
		if len(l.msgs) < 10 {
			l.msgs = append(l.msgs, m)
		}
	}
	l.kept = append(l.kept, o.kept...)
}

func (l *opLog) queries() int {
	n := 0
	for k := range l.lat {
		n += len(l.lat[k])
	}
	return n
}

// reader is one connection's closed loop over its share of the request
// stream: it sends the next request as soon as the previous one completed.
// Each response body is compared with the last body seen for the same
// request; only bodies that differ are kept for the (off-clock) checker,
// since equal bytes are equal answers from the same snapshot version.
type reader struct {
	c      *conn
	stream []request
	idx    []int    // stream indices this connection cycles through
	last   [][]byte // per stream index: last body seen (shared, disjoint idx)
	must   [][]byte // per stream index: body required (serve-cold vs hot), or nil
	pos    int
	buf    bytes.Buffer
	log    opLog
	span   func(kind opKind, start time.Time, d time.Duration) // traced runs only
}

func (r *reader) step() {
	i := r.idx[r.pos]
	r.pos++
	if r.pos == len(r.idx) {
		r.pos = 0
	}
	req := &r.stream[i]
	method := http.MethodGet
	if req.kind == opBatch {
		method = http.MethodPost
	}
	start := time.Now()
	status, err := r.c.do(method, req.target, req.body, opTimeout, &r.buf)
	d := time.Since(start)
	r.log.issued++
	if err != nil || status != http.StatusOK {
		r.log.fail("%s %s: status %d %v %s", method, req.target, status, err, bytes.TrimSpace(r.buf.Bytes()))
		return
	}
	if r.span != nil {
		r.span(req.kind, start, d)
	}
	r.log.lat[req.kind] = append(r.log.lat[req.kind], d)
	r.log.end[req.kind] = append(r.log.end[req.kind], start.Add(d).UnixNano())
	r.log.bytes[req.kind] += int64(r.buf.Len())
	body := r.buf.Bytes()
	if r.must != nil && !bytes.Equal(body, r.must[i]) {
		r.log.fail("%s %s: served %s, hot tier served %s", method, req.target,
			bytes.TrimSpace(body), bytes.TrimSpace(r.must[i]))
		return
	}
	if !bytes.Equal(body, r.last[i]) {
		cp := append([]byte(nil), body...)
		r.last[i] = cp
		r.log.kept = append(r.log.kept, kept{req: i, body: cp})
	}
}

// newReaders splits the stream's indices over the connections.
func newReaders(conns []*conn, stream []request) []*reader {
	last := make([][]byte, len(stream))
	rs := make([]*reader, len(conns))
	for k := range rs {
		rs[k] = &reader{c: conns[k], stream: stream, last: last}
	}
	for i := range stream {
		rs[i%len(rs)].idx = append(rs[i%len(rs)].idx, i)
	}
	return rs
}

// cycle runs every reader once through its share, concurrently.
func cycle(rs []*reader) time.Duration {
	start := time.Now()
	var wg sync.WaitGroup
	for _, r := range rs {
		wg.Add(1)
		go func(r *reader) {
			defer wg.Done()
			for range r.idx {
				r.step()
			}
		}(r)
	}
	wg.Wait()
	return time.Since(start)
}

// until runs every reader in a closed loop until done reports true,
// concurrently, and returns the wall time until the last one stopped.
func until(rs []*reader, done func() bool) time.Duration {
	start := time.Now()
	var wg sync.WaitGroup
	for _, r := range rs {
		wg.Add(1)
		go func(r *reader) {
			defer wg.Done()
			for !done() {
				r.step()
			}
		}(r)
	}
	wg.Wait()
	return time.Since(start)
}

// collect merges the readers' logs and resets them for the next phase.
func collect(rs []*reader) *opLog {
	out := &opLog{}
	for _, r := range rs {
		out.merge(&r.log)
		r.log = opLog{}
	}
	return out
}
