package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	cliqueapsp "github.com/congestedclique/cliqueapsp"
)

const (
	tenant    = "bench"   // the workload's tenant
	resident  = "serve"   // build: the exact tenant read between builds
	ballast   = "ballast" // serve-cold: the tenant whose admission demotes bench
	setupReps = 3         // set-ups per run; setup_s is their median
	// build: passes over the stream read after each publish. Right after a
	// build the server is still collecting its garbage; two passes give
	// each window enough samples to ride that out.
	probePasses = 2
	// patch: reads between a publish and the next write, one pass of the
	// stream.
	readsPerPublish = streamLen
)

// bench holds one run's inputs, all derived from the workload seed.
type bench struct {
	workload string
	seed     int64
	seconds  time.Duration
	bin      string // ccserve binary
	dir      string // this run's scratch directory

	algSeed int64 // pinned at tenant creation
	base    *cliqueapsp.Graph
	stream  []request

	// totals across the whole run
	attempted int
	failed    int
	msgs      []string
}

// algorithm is the bench tenant's: the build workload rebuilds constant;
// every workload that serves paths reads an exact tenant, because greedy
// next-hop routing over a constant estimate refuses a share of the pairs
// with a 400 (see README.md, "Known defect").
func (b *bench) algorithm() string {
	if b.workload == "build" {
		return "constant"
	}
	return "exact"
}

func (b *bench) count(l *opLog) {
	b.attempted += l.issued
	b.failed += l.failed
	b.note(l.msgs...)
}

func (b *bench) note(msgs ...string) {
	for _, m := range msgs {
		if len(b.msgs) < 20 {
			b.msgs = append(b.msgs, m)
		}
	}
}

// session is one ccserve process set up for the workload.
type session struct {
	srv     *ccserve
	conns   []*conn // the harness's two connections; control calls use the first
	c       *conn
	setup   time.Duration // exec until every tenant is ready
	publish cost          // the tenant's initial upload, until published
	version uint64
	factor  float64
	hotRef  []*reader // serve-cold: the stream read once while still hot
}

type uploadReply struct {
	Version uint64 `json:"version"`
	Ready   bool   `json:"ready"`
}

type tenantStats struct {
	Tier   string `json:"tier"`
	Oracle struct {
		FactorBound float64 `json:"factor_bound"`
		Pending     bool    `json:"pending"`
	} `json:"oracle"`
}

func (s *session) stats(name string) (tenantStats, error) {
	var st tenantStats
	err := jsonCall(s.c, http.MethodGet, "/v1/graphs/"+name+"/stats", nil, http.StatusOK, &st)
	return st, err
}

func (s *session) createTenant(name, alg string, seed int64) error {
	body, _ := json.Marshal(map[string]any{"name": name, "algorithm": alg, "seed": seed})
	return jsonCall(s.c, http.MethodPost, "/v1/graphs", body, http.StatusCreated, nil)
}

// cost is one write's wall time, from sending it to the reply that carries
// the published version, and the server's CPU time over the same span.
type cost struct {
	wall, cpu time.Duration
}

// timeWrite runs write and measures its cost.
func (s *session) timeWrite(write func() error) (cost, error) {
	cpu0, err := s.srv.cpuTime()
	if err != nil {
		return cost{}, err
	}
	start := time.Now()
	err = write()
	wall := time.Since(start)
	cpu1, cerr := s.srv.cpuTime()
	if err == nil {
		err = cerr
	}
	return cost{wall, cpu1 - cpu0}, err
}

func (s *session) upload(name string, body []byte) (uint64, cost, error) {
	var r uploadReply
	c, err := s.timeWrite(func() error {
		return jsonCall(s.c, http.MethodPost, "/v1/graphs/"+name+"/graph?wait=1", body, http.StatusOK, &r)
	})
	if err == nil && !r.Ready {
		err = fmt.Errorf("upload to %s: version %d not ready", name, r.Version)
	}
	return r.Version, c, err
}

// settle waits until name has no build queued or running.
func (s *session) settle(name string) error {
	deadline := time.Now().Add(time.Minute)
	for time.Now().Before(deadline) {
		st, err := s.stats(name)
		if err != nil {
			return err
		}
		if !st.Oracle.Pending {
			return nil
		}
		time.Sleep(time.Millisecond)
	}
	return fmt.Errorf("tenant %s still pending after a minute", name)
}

// gc asks the server for a garbage collection (the heap profile handler
// runs one first), so set-up garbage is not collected on the clock.
func (s *session) gc() error {
	return jsonCall(s.c, http.MethodGet, "/debug/pprof/heap?gc=1&debug=1", nil, http.StatusOK, nil)
}

// setUp boots ccserve and brings every tenant of the workload to ready.
// final marks the set-up the run goes on to measure; serve-cold reads its
// hot reference answers there, off the set-up clock.
func (b *bench) setUp(rep int, final bool) (*session, error) {
	dir := filepath.Join(b.dir, fmt.Sprintf("setup%d", rep))
	start := time.Now()
	srv, err := startCCServe(b.bin, dir)
	if err != nil {
		return nil, err
	}
	s := &session{srv: srv, conns: []*conn{newConn(srv.addr), newConn(srv.addr)}}
	s.c = s.conns[0]
	ok := false
	defer func() {
		if !ok {
			s.close()
		}
	}()
	if err := srv.waitListening(s.c); err != nil {
		return nil, err
	}
	if err := s.createTenant(tenant, b.algorithm(), b.algSeed); err != nil {
		return nil, err
	}
	var offClock time.Duration
	read := tenant
	if b.workload == "build" {
		read = resident
		if err := s.createTenant(resident, "exact", b.algSeed); err != nil {
			return nil, err
		}
	}
	if s.version, s.publish, err = s.upload(read, graphJSON(b.base)); err != nil {
		return nil, err
	}
	st, err := s.stats(read)
	if err != nil {
		return nil, err
	}
	s.factor = st.Oracle.FactorBound
	if b.workload == "serve-cold" {
		if final {
			pause := time.Now()
			s.hotRef = newReaders(s.conns, b.stream)
			cycle(s.hotRef)
			offClock = time.Since(pause)
		}
		// Only an idle tenant can be demoted: wait out the build loop.
		if err := s.settle(tenant); err != nil {
			return nil, err
		}
		if err := s.createTenant(ballast, "logapprox", b.algSeed); err != nil {
			return nil, err
		}
		g := genGraph(ballastNodes, derive(b.seed, "ballast"))
		if _, _, err := s.upload(ballast, graphJSON(g)); err != nil {
			return nil, err
		}
		st, err := s.stats(tenant)
		if err != nil {
			return nil, err
		}
		if st.Tier != "cold" {
			return nil, fmt.Errorf("serve-cold: tenant is %q after the ballast upload, want cold", st.Tier)
		}
	}
	s.setup = time.Since(start) - offClock
	ok = true
	return s, nil
}

// setUpRepeated sets up setupReps times and keeps the last session running.
// The measurements it returns hold the set-up times and, as the writes, the
// set-ups' uploads of the tenant the workload reads.
func (b *bench) setUpRepeated() (*session, *measured, error) {
	m := &measured{}
	for rep := 0; ; rep++ {
		final := rep == setupReps-1
		s, err := b.setUp(rep, final)
		if err != nil {
			return nil, nil, fmt.Errorf("set-up %d: %w", rep, err)
		}
		m.setups = append(m.setups, s.setup.Seconds())
		m.addWrite(s.publish)
		if final {
			return s, m, nil
		}
		if err := s.close(); err != nil {
			return nil, nil, err
		}
		os.RemoveAll(s.srv.dir)
	}
}

// measured is what one run of any workload reports.
type measured struct {
	setups    []float64 // seconds per set-up
	publishes []float64 // seconds per write until published
	writeCPU  []float64 // the server's CPU seconds per write
	reads     *opLog    // the timed queries
	windows   []window  // the read metrics' windows
	stretch   float64
	rssMB     float64
	checked   int // answers checked

	pool      []*cliqueapsp.Graph // build: the graphs uploaded in turn
	deltaList []edgeDelta         // patch: the deltas sent, in order
}

func (m *measured) addWrite(c cost) {
	m.publishes = append(m.publishes, c.wall.Seconds())
	m.writeCPU = append(m.writeCPU, c.cpu.Seconds())
}

// checkKept decodes and checks every kept body, counting failed responses.
func (b *bench) checkKept(ck *checker, kept []kept) {
	for _, k := range kept {
		if !ck.response(&b.stream[k.req], k.body) {
			b.failed++
		}
	}
}

func (b *bench) finish(s *session, m *measured) error {
	rss, err := s.srv.procStatusMB("VmHWM")
	if err != nil {
		return err
	}
	m.rssMB = rss
	return s.close()
}

// close drops the connections and stops the server.
func (s *session) close() error {
	for _, c := range s.conns {
		c.close()
	}
	return s.srv.stop()
}

// runServe drives serve-hot and serve-cold: two connections cycle the
// request stream in a closed loop against one resident tenant.
func (b *bench) runServe(trace *tracer) (*measured, *session, error) {
	s, m, err := b.setUpRepeated()
	if err != nil {
		return nil, nil, err
	}
	ck := newChecker(newTruth(b.base), map[uint64]int{s.version: 0}, s.factor, true)
	rs := newReaders(s.conns, b.stream)
	if s.hotRef != nil {
		ref := collect(s.hotRef)
		b.count(ref)
		b.checkKept(ck, ref.kept)
		// Equal bytes are the answers just checked; only a differing cold
		// answer is kept, and it fails the hot/cold comparison anyway.
		copy(rs[0].last, s.hotRef[0].last)
		for _, r := range rs {
			r.must = s.hotRef[0].last
		}
	}
	warm := b.warm(s, rs)
	b.checkKept(ck, warm.kept)
	var from, to time.Time
	m.reads, from, to = b.timed(s, rs, trace, func() { until(rs, deadline(b.seconds)) })
	m.windows = secondWindows(from, to)
	b.count(m.reads)
	b.checkKept(ck, m.reads.kept)
	m.stretch, m.checked = ck.stretchMax, ck.answers
	b.note(ck.msgs...)
	return m, s, b.finish(s, m)
}

// warm reads the whole stream once (filling the next-hop memo, the row
// cache and the connection pool), then collects set-up garbage on both
// sides.
func (b *bench) warm(s *session, rs []*reader) *opLog {
	cycle(rs)
	l := collect(rs)
	b.count(l)
	if err := s.gc(); err != nil {
		b.failed++
		b.note(err.Error())
	}
	runtime.GC()
	return l
}

// timed runs the workload's timed loop, run, and collects the readers'
// logs. A traced run runs the loop twice: first untraced, as the baseline
// the tracing overhead is measured against, then with a span around every
// request.
func (b *bench) timed(s *session, rs []*reader, trace *tracer, run func()) (*opLog, time.Time, time.Time) {
	var base *opLog
	if trace != nil {
		base = trace.baseline(s, rs, run)
		trace.instrument(rs)
	}
	from := time.Now()
	run()
	to := time.Now()
	l := collect(rs)
	if base != nil {
		trace.traced(l)
		l.merge(base)
	}
	return l, from, to
}

// runPatch drives patch: one connection sends patchCycles whole cycles of
// single-edge reweights with ?wait=1, and after each publish the other
// reads readsPerPublish requests of the serving mix. The count is fixed, not
// timed, like build's. Writes and reads take
// turns. A PATCH is sent while the reader is idle, so the server's CPU time
// over it is the write's own. Every snapshot serves the same reads before
// it is replaced, however fast the machine runs, so the share of reads that
// find the next-hop memo cold is the same from run to run.
func (b *bench) runPatch(trace *tracer) (*measured, *session, error) {
	deltas := deltaStream(b.base, b.seed, 2*patchCycles*deltaCycle) // a traced run loops twice
	s, setup, err := b.setUpRepeated()
	if err != nil {
		return nil, nil, err
	}
	m := &measured{setups: setup.setups}
	tr := newTruth(b.base)
	versions := map[uint64]int{s.version: 0}
	rs := newReaders(s.conns[1:], b.stream)
	warm := b.warm(s, rs)

	var writes []cost
	var buf bytes.Buffer
	// loop sends the next patchCycles cycles of deltas, each delta followed
	// by its reads.
	loop := func() error {
		for n := 0; n < patchCycles*deltaCycle; n++ {
			k := len(writes)
			start := time.Now()
			var r uploadReply
			c, err := s.timeWrite(func() error {
				status, err := s.c.do(http.MethodPatch, "/v1/graphs/"+tenant+"/edges?wait=1", deltas[k].body(), 2*time.Minute, &buf)
				if err == nil && status != http.StatusOK {
					err = fmt.Errorf("status %d: %s", status, bytes.TrimSpace(buf.Bytes()))
				}
				if err == nil {
					err = json.Unmarshal(buf.Bytes(), &r)
				}
				return err
			})
			if err != nil {
				return fmt.Errorf("PATCH delta %d: %w", k, err)
			}
			if trace != nil {
				trace.write("http.patch", start, c.wall)
			}
			writes = append(writes, c)
			tr.push(deltas[k])
			versions[r.Version] = k + 1
			for i := 0; i < readsPerPublish; i++ {
				rs[0].step()
			}
		}
		return nil
	}
	var werr error
	var from, to time.Time
	m.reads, from, to = b.timed(s, rs, trace, func() {
		if werr == nil {
			werr = loop()
		}
	})
	b.attempted += len(writes)
	if werr != nil {
		b.attempted++
		return nil, nil, werr
	}
	for _, c := range writes {
		m.addWrite(c)
	}
	// One window: reads right after a publish find the next-hop memo cold,
	// so per-second figures swing with where the publishes fall; pooled
	// over the whole loop, the cold share is steady.
	m.windows = []window{{from, to}}
	b.count(m.reads)
	ck := newChecker(tr, versions, 1, true)
	tr.prefetch(b.sources(), 2)
	b.checkKept(ck, warm.kept)
	b.checkKept(ck, m.reads.kept)
	m.stretch, m.checked = ck.stretchMax, ck.answers
	b.note(ck.msgs...)
	m.deltaList = deltas[:len(writes)]
	return m, s, b.finish(s, m)
}

// runBuild drives build: one connection uploads each of the pool's graphs
// once to the constant tenant with ?wait=1. The count is fixed, not timed,
// so every run averages the same graph mix whatever the machine's speed. After each publish, off the build
// clock, one batch reads the new version's answers to every dist and batch
// pair of the stream for the checker, and then both connections read
// probePasses passes of the stream from the resident exact tenant: the
// workload's read metrics are serving right after a neighbour's build.
func (b *bench) runBuild(trace *tracer) (*measured, *session, error) {
	s, setup, err := b.setUpRepeated()
	if err != nil {
		return nil, nil, err
	}
	m := &measured{setups: setup.setups, reads: &opLog{}}
	checkers := make([]*checker, buildPool)
	for i := range checkers {
		g := genGraph(nodes, derive(b.seed, fmt.Sprintf("build-%d", i)))
		m.pool = append(m.pool, g)
		checkers[i] = newChecker(newTruth(g), map[uint64]int{}, 0, false)
	}
	var verify []pair
	for _, r := range b.stream {
		if r.kind != opPath {
			verify = append(verify, r.pairs...)
		}
	}
	serveCk := newChecker(newTruth(b.base), map[uint64]int{s.version: 0}, 1, true)
	rs := newReaders(s.conns, b.stream)
	b.checkKept(serveCk, b.warm(s, rs).kept)
	probe := func() time.Duration {
		start := time.Now()
		for p := 0; p < probePasses; p++ {
			cycle(rs)
		}
		return time.Since(start)
	}
	for i := 0; i < buildPool; i++ {
		start := time.Now()
		v, c, err := s.upload(tenant, graphJSON(m.pool[i]))
		b.attempted++
		if err != nil {
			return nil, nil, err
		}
		if trace != nil {
			trace.write("http.upload", start, c.wall)
		}
		m.addWrite(c)
		st, err := s.stats(tenant)
		if err != nil {
			return nil, nil, err
		}
		ck := checkers[i]
		ck.versions[v] = 0
		ck.factor = st.Oracle.FactorBound
		b.verify(s, ck, verify)

		var base *opLog
		if trace != nil {
			base = trace.baseline(s, rs, func() { probe() })
			trace.instrument(rs)
		}
		from := time.Now()
		d := probe()
		l := collect(rs)
		if base != nil {
			trace.traced(l)
			l.merge(base)
		}
		m.windows = append(m.windows, window{from, from.Add(d)})
		b.count(l)
		b.checkKept(serveCk, l.kept)
		m.reads.merge(l)
	}
	for _, ck := range append(checkers, serveCk) {
		if ck.stretchMax > m.stretch {
			m.stretch = ck.stretchMax
		}
		m.checked += ck.answers
		b.note(ck.msgs...)
	}
	return m, s, b.finish(s, m)
}

// sources lists the distinct sources of the stream's queries.
func (b *bench) sources() []int {
	seen := make(map[int]bool)
	var out []int
	for _, r := range b.stream {
		for _, p := range r.pairs {
			if !seen[p.u] {
				seen[p.u] = true
				out = append(out, p.u)
			}
		}
	}
	return out
}

// verify reads pairs from the bench tenant in one batch and checks them.
func (b *bench) verify(s *session, ck *checker, pairs []pair) {
	b.attempted++
	body := make([][2]int, len(pairs))
	for i, p := range pairs {
		body[i] = [2]int{p.u, p.v}
	}
	req, _ := json.Marshal(map[string]any{"pairs": body})
	var r wireBatch
	err := jsonCall(s.c, http.MethodPost, "/v1/graphs/"+tenant+"/batch", req, http.StatusOK, &r)
	if err == nil && len(r.Answers) != len(pairs) {
		err = fmt.Errorf("verification batch: %d answers for %d pairs", len(r.Answers), len(pairs))
	}
	if err != nil {
		b.failed++
		b.note(err.Error())
		return
	}
	before := ck.failed
	for i, a := range r.Answers {
		ck.answer(r.Version, pairs[i], a)
	}
	if ck.failed > before {
		b.failed++
	}
}
