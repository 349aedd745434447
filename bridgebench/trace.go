package main

import (
	"context"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/advice"
	"repro/internal/bridge"
	"repro/internal/caql"
	"repro/internal/relation"
	"repro/internal/remotedb"
)

// tracer accumulates the traced run's per-layer timings. It instruments the
// bridge from outside only: wrappers around bridge.DataSource/Session and
// remotedb.Client time the calls into each layer, forwarding every optional
// capability the wrapped value has so the traced program takes the same path
// as the untraced one.
type tracer struct {
	dsNS      atomic.Int64 // time inside DataSource/Session calls and their streams
	dsQueries atomic.Int64 // CAQL queries issued to a session

	fgClientNS atomic.Int64 // client time on behalf of a foreground query
	fgTuples   atomic.Int64 // tuples delivered by foreground client calls
	selects    atomic.Int64 // SELECT requests issued through the client
	failures   atomic.Int64 // client calls or streams that ended in an error
	drainNS    atomic.Int64 // time inside client stream Next calls
	drainTups  atomic.Int64 // tuples delivered by client streams
	calls      atomic.Int64 // client requests of any kind (exec, stream, catalog)
	lazyMisses atomic.Int64 // remote streams still open when their query returned

	mu         sync.Mutex
	firstFrame []time.Duration // ExecStream call → first Next return, per stream
	sqls       []string        // distinct captured SELECT statements, first seen first
	seen       map[string]bool
}

// maxCapturedSQL bounds the statements replayed by the offline layer pass.
const maxCapturedSQL = 48

func newTracer() *tracer { return &tracer{seen: map[string]bool{}} }

func (t *tracer) capture(sql string) {
	t.calls.Add(1)
	if !strings.HasPrefix(sql, "SELECT") {
		return
	}
	t.selects.Add(1)
	t.mu.Lock()
	if !t.seen[sql] && len(t.sqls) < maxCapturedSQL {
		t.seen[sql] = true
		t.sqls = append(t.sqls, sql)
	}
	t.mu.Unlock()
}

func (t *tracer) capturedSQL() []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]string(nil), t.sqls...)
}

// tcounts is a reading of a tracer's counters.
type tcounts struct {
	dsNS, dsQueries, fgClientNS, fgTuples, selects, failures, drainNS, drainTups, calls, lazyMisses int64
	frames                                                                                          int // first-frame samples so far
}

func (t *tracer) counts() tcounts {
	if t == nil {
		return tcounts{}
	}
	t.mu.Lock()
	frames := len(t.firstFrame)
	t.mu.Unlock()
	return tcounts{
		dsNS: t.dsNS.Load(), dsQueries: t.dsQueries.Load(),
		fgClientNS: t.fgClientNS.Load(), fgTuples: t.fgTuples.Load(),
		selects: t.selects.Load(), failures: t.failures.Load(),
		drainNS: t.drainNS.Load(), drainTups: t.drainTups.Load(),
		calls: t.calls.Load(), lazyMisses: t.lazyMisses.Load(),
		frames: frames,
	}
}

// framesBetween returns the first-frame samples recorded between two readings.
func (t *tracer) framesBetween(a, b tcounts) []time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]time.Duration(nil), t.firstFrame[a.frames:b.frames]...)
}

// fgKey marks contexts of queries the harness issued, so client calls made on
// their behalf count as foreground; prefetch workers run under the session's
// own context and count as background. The value collects the streams the
// query opened, so the session wrapper can tell which were still streaming
// when the query returned (a lazy remote answer). A query opens its streams
// one at a time (the CMS's parallel path runs one remote fetch beside
// cache-local work and joins it before returning), so the list needs no lock.
type fgKey struct{}

type fgQuery struct{ streams []*tracedStream }

func fgOf(ctx context.Context) *fgQuery {
	if ctx == nil {
		return nil
	}
	q, _ := ctx.Value(fgKey{}).(*fgQuery)
	return q
}

func isFG(ctx context.Context) bool { return fgOf(ctx) != nil }

// ---- bridge wrappers ----

type tracedDS struct {
	t     *tracer
	inner bridge.DataSource
}

func (d *tracedDS) timed(f func()) {
	t0 := time.Now()
	f()
	d.t.dsNS.Add(int64(time.Since(t0)))
}

func (d *tracedDS) BeginSession(adv *advice.Advice) bridge.Session {
	var s bridge.Session
	d.timed(func() { s = d.inner.BeginSession(adv) })
	return &tracedSession{t: d.t, inner: s}
}

func (d *tracedDS) RelationSchema(name string, arity int) (sch *relation.Schema, err error) {
	d.timed(func() { sch, err = d.inner.RelationSchema(name, arity) })
	return
}

func (d *tracedDS) RelationStats(name string) (st remotedb.TableStats, err error) {
	d.timed(func() { st, err = d.inner.RelationStats(name) })
	return
}

func (d *tracedDS) Stats() bridge.SourceStats { return d.inner.Stats() }

type tracedSession struct {
	t     *tracer
	inner bridge.Session
}

func (s *tracedSession) Query(q *caql.Query) (*bridge.Stream, error) {
	return s.QueryCtx(context.Background(), q)
}

func (s *tracedSession) QueryCtx(ctx context.Context, q *caql.Query) (*bridge.Stream, error) {
	return s.query(ctx, func(ctx context.Context) (*bridge.Stream, error) { return s.inner.QueryCtx(ctx, q) })
}

func (s *tracedSession) QueryText(src string) (*bridge.Stream, error) {
	return s.QueryTextCtx(context.Background(), src)
}

func (s *tracedSession) QueryTextCtx(ctx context.Context, src string) (*bridge.Stream, error) {
	return s.query(ctx, func(ctx context.Context) (*bridge.Stream, error) { return s.inner.QueryTextCtx(ctx, src) })
}

// query times one query call under a foreground marker and counts the remote
// streams it left open: the CMS handed those to the caller lazily.
func (s *tracedSession) query(ctx context.Context, f func(context.Context) (*bridge.Stream, error)) (*bridge.Stream, error) {
	s.t.dsQueries.Add(1)
	fq := &fgQuery{}
	t0 := time.Now()
	st, err := f(context.WithValue(ctx, fgKey{}, fq))
	s.t.dsNS.Add(int64(time.Since(t0)))
	for _, ts := range fq.streams {
		if !ts.ended {
			s.t.lazyMisses.Add(1)
		}
	}
	return s.wrap(st, err)
}

func (s *tracedSession) End() {
	t0 := time.Now()
	s.inner.End()
	s.t.dsNS.Add(int64(time.Since(t0)))
}

// wrap re-issues the stream with a timed iterator; the iterator keeps the
// Err convention, so a canceled stream still surfaces its typed error.
func (s *tracedSession) wrap(st *bridge.Stream, err error) (*bridge.Stream, error) {
	if err != nil || st == nil {
		return st, err
	}
	return bridge.NewStream(st.Schema(), &timedIter{ns: &s.t.dsNS, inner: st}, st.Lazy()), nil
}

type timedIter struct {
	ns    *atomic.Int64
	inner *bridge.Stream
}

func (it *timedIter) Next() (relation.Tuple, bool) {
	t0 := time.Now()
	tu, ok := it.inner.Next()
	it.ns.Add(int64(time.Since(t0)))
	return tu, ok
}

func (it *timedIter) Err() error { return it.inner.Err() }

// ---- remote client wrapper ----

// pooledClient is the capability set of *remotedb.PoolClient that the CMS
// probes for. tracedClient implements exactly this set, and newTracedClient
// refuses any client that lacks part of it, so wrapping never changes which
// path the CMS takes.
type pooledClient interface {
	remotedb.ContextClient
	remotedb.ResumableClient
	remotedb.EpochReporter
}

var _ pooledClient = (*remotedb.PoolClient)(nil)
var _ pooledClient = (*tracedClient)(nil)

type tracedClient struct {
	t     *tracer
	inner pooledClient
}

func newTracedClient(t *tracer, c remotedb.Client) *tracedClient {
	pc, ok := c.(pooledClient)
	if !ok {
		panic("bridgebench: traced client needs the pooled client's capabilities")
	}
	return &tracedClient{t: t, inner: pc}
}

func (c *tracedClient) fg(ctx context.Context, d time.Duration) {
	if isFG(ctx) {
		c.t.fgClientNS.Add(int64(d))
	}
}

func (c *tracedClient) result(ctx context.Context, t0 time.Time, res *remotedb.Result, err error) (*remotedb.Result, error) {
	c.fg(ctx, time.Since(t0))
	if err != nil {
		c.t.failures.Add(1)
	} else if res != nil && res.Rel != nil && isFG(ctx) {
		c.t.fgTuples.Add(int64(res.Rel.Len()))
	}
	return res, err
}

func (c *tracedClient) Exec(sql string) (*remotedb.Result, error) {
	c.t.capture(sql)
	t0 := time.Now()
	res, err := c.inner.Exec(sql)
	return c.result(context.WithValue(context.Background(), fgKey{}, &fgQuery{}), t0, res, err)
}

func (c *tracedClient) ExecCtx(ctx context.Context, sql string) (*remotedb.Result, error) {
	c.t.capture(sql)
	t0 := time.Now()
	res, err := c.inner.ExecCtx(ctx, sql)
	return c.result(ctx, t0, res, err)
}

func (c *tracedClient) ExecStream(ctx context.Context, sql string) (remotedb.TupleStream, error) {
	c.t.capture(sql)
	t0 := time.Now()
	st, err := c.inner.ExecStream(ctx, sql)
	return c.stream(ctx, t0, st, err)
}

func (c *tracedClient) ExecStreamResume(ctx context.Context, sql, token string, skip int64) (remotedb.TupleStream, error) {
	c.t.capture(sql)
	t0 := time.Now()
	st, err := c.inner.ExecStreamResume(ctx, sql, token, skip)
	return c.stream(ctx, t0, st, err)
}

func (c *tracedClient) stream(ctx context.Context, t0 time.Time, st remotedb.TupleStream, err error) (remotedb.TupleStream, error) {
	c.fg(ctx, time.Since(t0))
	if err != nil {
		c.t.failures.Add(1)
		return nil, err
	}
	ts := &tracedStream{t: c.t, inner: st, fg: isFG(ctx), opened: t0}
	if fq := fgOf(ctx); fq != nil {
		fq.streams = append(fq.streams, ts)
	}
	if _, ok := st.(remotedb.ResumeReporter); ok {
		return &tracedResumableStream{ts}, nil
	}
	return ts, nil
}

func (c *tracedClient) RelationSchema(name string, arity int) (*relation.Schema, error) {
	c.t.calls.Add(1)
	t0 := time.Now()
	sch, err := c.inner.RelationSchema(name, arity)
	c.t.fgClientNS.Add(int64(time.Since(t0)))
	return sch, err
}

func (c *tracedClient) TableStats(name string) (remotedb.TableStats, error) {
	c.t.calls.Add(1)
	t0 := time.Now()
	st, err := c.inner.TableStats(name)
	c.t.fgClientNS.Add(int64(time.Since(t0)))
	return st, err
}

func (c *tracedClient) Tables() ([]string, error) {
	c.t.calls.Add(1)
	return c.inner.Tables()
}
func (c *tracedClient) Stats() remotedb.Stats { return c.inner.Stats() }
func (c *tracedClient) Close() error          { return c.inner.Close() }
func (c *tracedClient) ObservedEpoch() uint64 { return c.inner.ObservedEpoch() }

type tracedStream struct {
	t      *tracer
	inner  remotedb.TupleStream
	fg     bool
	opened time.Time
	gotOne bool
	ended  bool
}

func (s *tracedStream) Next() (relation.Tuple, bool) {
	t0 := time.Now()
	tu, ok := s.inner.Next()
	d := time.Since(t0)
	s.t.drainNS.Add(int64(d))
	if s.fg {
		s.t.fgClientNS.Add(int64(d))
	}
	if !s.gotOne {
		s.gotOne = true
		s.t.mu.Lock()
		s.t.firstFrame = append(s.t.firstFrame, time.Since(s.opened))
		s.t.mu.Unlock()
	}
	if ok {
		s.t.drainTups.Add(1)
		if s.fg {
			s.t.fgTuples.Add(1)
		}
	} else if !s.ended {
		s.ended = true
		if s.inner.Err() != nil {
			s.t.failures.Add(1)
		}
	}
	return tu, ok
}

func (s *tracedStream) Schema() *relation.Schema { return s.inner.Schema() }
func (s *tracedStream) Name() string             { return s.inner.Name() }
func (s *tracedStream) Err() error               { return s.inner.Err() }
func (s *tracedStream) Close() error             { return s.inner.Close() }
func (s *tracedStream) Ops() int64               { return s.inner.Ops() }
func (s *tracedStream) SimMS() float64           { return s.inner.SimMS() }

// tracedResumableStream forwards ResumeReporter for streams that carry one.
type tracedResumableStream struct{ *tracedStream }

func (s *tracedResumableStream) ResumeState() (string, bool) {
	return s.inner.(remotedb.ResumeReporter).ResumeState()
}

// ---- byte-counting relay ----

// relay is a loopback TCP proxy that counts the bytes the server sends
// through it (the traced run's wire.bytes_per_tuple).
type relay struct {
	ln     net.Listener
	target string
	down   atomic.Int64
	wg     sync.WaitGroup

	mu    sync.Mutex
	conns []net.Conn
}

func startRelay(target string) (*relay, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	r := &relay{ln: ln, target: target}
	r.wg.Add(1)
	go r.accept()
	return r, nil
}

func (r *relay) addr() string { return r.ln.Addr().String() }

func (r *relay) accept() {
	defer r.wg.Done()
	for {
		c, err := r.ln.Accept()
		if err != nil {
			return
		}
		s, err := net.Dial("tcp", r.target)
		if err != nil {
			c.Close()
			continue
		}
		r.mu.Lock()
		r.conns = append(r.conns, c, s)
		r.mu.Unlock()
		r.wg.Add(2)
		go func() { defer r.wg.Done(); io.Copy(s, c); s.Close() }()
		go func() {
			defer r.wg.Done()
			n, _ := io.Copy(c, s)
			r.down.Add(n)
			c.Close()
		}()
	}
}

func (r *relay) close() {
	r.ln.Close()
	r.mu.Lock()
	for _, c := range r.conns {
		c.Close()
	}
	r.mu.Unlock()
	r.wg.Wait()
}
