package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/bridge"
	"repro/internal/cache"
	"repro/internal/caql"
	"repro/internal/relation"
	"repro/internal/remotedb"
	"repro/internal/workload"
)

// remoteStream is the miss path: CMS sessions (no IE) over a cache whose
// budget is below the smallest answer, so every query ships its result over
// the pool and wire from the engine and nothing is retained.
type remoteStream struct {
	seed   int64
	rows   int
	domain int
	nSess  int
	qs     []*caql.Query
	want   []answerSum
}

// answerSum is an order-free summary of a multiset of tuples.
type answerSum struct {
	n   int64
	sum uint64
}

func (a *answerSum) add(t relation.Tuple) {
	h := uint64(14695981039346656037)
	for i, v := range t {
		h ^= v.Hash() + uint64(i)*0x9e3779b97f4a7c15
		h *= 1099511628211
	}
	a.n++
	a.sum += h
}

func sumOf(ts []relation.Tuple) answerSum {
	var a answerSum
	for _, t := range ts {
		a.add(t)
	}
	return a
}

// streamShapes are the three request shapes: a range selection on b3 (about
// a quarter of b3), the b2⋈b3 join on one tag (about |b2| rows, large enough
// to run morsel-parallel), and a full b1 scan.
func streamShapes(domain int, rng *rand.Rand) []string {
	var out []string
	width := domain / 4
	for i := 0; i < 8; i++ {
		lo := rng.Intn(domain - width)
		out = append(out, fmt.Sprintf("rs(X, T, Z) :- b3(X, T, Z) & X >= %d & X < %d", lo, lo+width))
	}
	for _, tag := range []string{"c1", "c2", "c3", "d1", "d2"} {
		out = append(out, fmt.Sprintf("rj(X, Y, W) :- b2(X, Y) & b3(Y, %s, W)", tag))
	}
	out = append(out, "rb(X, Y) :- b1(X, Y)")
	return out
}

func newRemoteStream(seed int64, rows, domain, sessions int) (*remoteStream, error) {
	w := &remoteStream{seed: seed, rows: rows, domain: domain, nSess: sessions}
	src := workload.Chain(seed, rows, domain).Source()
	for _, text := range streamShapes(domain, rand.New(rand.NewSource(seed))) {
		q, err := caql.Parse(text)
		if err != nil {
			return nil, err
		}
		ref, err := caql.Eval(q, src)
		if err != nil {
			return nil, err
		}
		w.qs = append(w.qs, q)
		w.want = append(w.want, sumOf(ref.Tuples()))
	}
	return w, nil
}

func (w *remoteStream) sessions() int { return w.nSess }
func (w *remoteStream) poolSize() int { return 2 }
func (w *remoteStream) fsync() string { return "none (in-memory engine)" }

// pick draws request k of a stream: the three shapes in turn, the range
// bounds and join tag seeded within a shape.
func (w *remoteStream) pick(rng *rand.Rand, k int) int {
	switch k % 3 {
	case 0:
		return rng.Intn(8)
	case 1:
		return 8 + rng.Intn(5)
	default:
		return 13
	}
}

type rsInst struct {
	w     *remoteStream
	srv   *remotedb.Server
	eng   *remotedb.Engine
	pool  *remotedb.PoolClient
	cms   *cache.CMS
	sess  []bridge.Session
	rngs  []*rand.Rand
	steps []int
	bufs  [][]relation.Tuple
	addrS string
}

// noRetainCMS is a CMS whose budget is below every answer, so results are
// served but never kept.
func noRetainCMS(client remotedb.Client) *cache.CMS {
	return cache.New(client, cache.Options{Features: cache.AllFeatures(), CacheBytes: 1, Costs: remotedb.DefaultCosts()})
}

func (w *remoteStream) setup(t *tracer, _ string) (instance, error) {
	eng := workload.Chain(w.seed, w.rows, w.domain).Engine()
	srv := remotedb.NewServer(eng)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	pool, err := remotedb.DialPool(addr, remotedb.PoolOptions{Size: w.poolSize()})
	if err != nil {
		srv.Close()
		return nil, err
	}
	var client remotedb.Client = pool
	if t != nil {
		client = newTracedClient(t, pool)
	}
	in := &rsInst{w: w, srv: srv, eng: eng, pool: pool, cms: noRetainCMS(client), addrS: addr,
		steps: make([]int, w.nSess), bufs: make([][]relation.Tuple, w.nSess)}
	for s := 0; s < w.nSess; s++ {
		var sess bridge.Session = in.cms.BeginSession(nil)
		if t != nil {
			sess = &tracedSession{t: t, inner: sess}
		}
		in.sess = append(in.sess, sess)
		in.rngs = append(in.rngs, rand.New(rand.NewSource(sessionSeed(w.seed, s))))
	}
	// Warm-up: every distinct request once, on session 0.
	for i := range w.qs {
		if s := in.query(0, i); s.failed {
			in.close()
			return nil, fmt.Errorf("remote_stream: warm-up query %d failed", i)
		}
	}
	return in, nil
}

// query runs request i on session s, drains it, and checks count and
// multiset hash against caql.Eval over the generated tables.
func (in *rsInst) query(s, i int) sample {
	t0 := time.Now()
	st, err := in.sess[s].QueryCtx(bgCtx, in.w.qs[i])
	if err != nil {
		return sample{lat: time.Since(t0), first: time.Since(t0), failed: true}
	}
	got, first := drain(st, t0, in.bufs[s][:0])
	in.bufs[s] = got
	smp := sample{lat: time.Since(t0), first: first}
	smp.failed = st.Err() != nil || sumOf(got) != in.w.want[i]
	return smp
}

// drain collects a stream's tuples into buf (reused across requests, so the
// harness allocates little beside the bridge) and reports the time from t0
// to the first Next's return.
func drain(st *bridge.Stream, t0 time.Time, buf []relation.Tuple) ([]relation.Tuple, time.Duration) {
	var first time.Duration
	for {
		tu, ok := st.Next()
		if first == 0 {
			first = time.Since(t0)
		}
		if !ok {
			return buf, first
		}
		buf = append(buf, tu)
	}
}

func (in *rsInst) step(s int) []sample {
	in.steps[s]++
	return []sample{in.query(s, in.w.pick(in.rngs[s], in.steps[s]+s))}
}

func (in *rsInst) exhausted() bool          { return false }
func (in *rsInst) snapshot() snap           { return cmsSnap(in.cms, in.eng) }
func (in *rsInst) engine() *remotedb.Engine { return in.eng }
func (in *rsInst) addr() string             { return in.addrS }

func (in *rsInst) close() {
	for _, s := range in.sess {
		s.End()
	}
	in.pool.Close()
	in.srv.Close()
}
