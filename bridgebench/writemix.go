package main

import (
	"fmt"
	"math/rand"
	"os"
	"strings"
	"time"

	"repro/internal/bridge"
	"repro/internal/cache"
	"repro/internal/caql"
	"repro/internal/relation"
	"repro/internal/remotedb"
	"repro/internal/workload"
)

// writeMix puts writes beside small reads on a durable engine: one closed
// loop alternates a 50-row INSERT INTO b2 over a writer connection with two
// CMS reads of the newest rows. Reads slow as b2 grows, so the loop runs in
// fixed-length epochs, each on a freshly loaded engine: every epoch does the
// same work whatever the run length or speed.
type writeMix struct {
	seed     int64
	rows     int
	domain   int
	batch    int
	epochLen int   // steps per epoch
	segment  int64 // WAL segment size, bytes
	base     map[string]*relation.Relation
	b3ByX    map[int64][]relation.Tuple
}

const writeMixFsync = remotedb.FsyncInterval

func newWriteMix(seed int64, rows, domain, batch, epochLen int, segment int64) *writeMix {
	w := &writeMix{seed: seed, rows: rows, domain: domain, batch: batch, epochLen: epochLen, segment: segment,
		base: map[string]*relation.Relation{}, b3ByX: map[int64][]relation.Tuple{}}
	for _, t := range workload.Chain(seed, rows, domain).Tables {
		w.base[t.Name] = t
	}
	for _, t := range w.base["b3"].Tuples() {
		w.b3ByX[t[0].AsInt()] = append(w.b3ByX[t[0].AsInt()], t)
	}
	return w
}

func (w *writeMix) sessions() int { return 1 }
func (w *writeMix) poolSize() int { return 1 }
func (w *writeMix) fsync() string {
	return fmt.Sprintf("%s (every 100ms), segment %d B", writeMixFsync, w.segment)
}

type wmInst struct {
	w      *writeMix
	srv    *remotedb.Server
	eng    *remotedb.Engine
	reader *remotedb.PoolClient
	writer *remotedb.PoolClient
	cms    *cache.CMS
	sess   bridge.Session
	rng    *rand.Rand
	steps  int
	mirror []relation.Tuple // acknowledged inserts, in order
	buf    []relation.Tuple
	dir    string
	addrS  string
}

func (w *writeMix) setup(t *tracer, dir string) (instance, error) {
	wl := workload.Chain(w.seed, w.rows, w.domain)
	eng, _, err := remotedb.OpenEngine(remotedb.Durability{Dir: dir, Fsync: writeMixFsync, SegmentBytes: w.segment})
	if err != nil {
		return nil, err
	}
	for _, tb := range wl.Tables {
		eng.LoadTable(tb)
	}
	srv := remotedb.NewServer(eng)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		eng.CloseWAL()
		return nil, err
	}
	in := &wmInst{w: w, srv: srv, eng: eng, dir: dir, addrS: addr, rng: rand.New(rand.NewSource(sessionSeed(w.seed, 0)))}
	if in.reader, err = remotedb.DialPool(addr, remotedb.PoolOptions{Size: w.poolSize()}); err != nil {
		in.close()
		return nil, err
	}
	if in.writer, err = remotedb.DialPool(addr, remotedb.PoolOptions{Size: 1}); err != nil {
		in.close()
		return nil, err
	}
	var client remotedb.Client = in.reader
	if t != nil {
		client = newTracedClient(t, in.reader)
	}
	in.cms = noRetainCMS(client)
	in.sess = in.cms.BeginSession(nil)
	if t != nil {
		in.sess = &tracedSession{t: t, inner: in.sess}
	}
	// Warm-up: both read shapes over the top base keys. An empty answer
	// would fit the one-byte budget and be retained, so warm-up reads rows.
	for _, s := range in.reads(int64(w.domain - 8)) {
		if s.failed {
			in.close()
			return nil, fmt.Errorf("write_mix: warm-up read failed")
		}
	}
	return in, nil
}

// step is one INSERT batch followed by the two reads of the newest rows.
func (in *wmInst) step(int) []sample {
	w := in.w
	key := int64(w.domain + in.steps)
	in.steps++
	rows := make([]relation.Tuple, w.batch)
	var sb strings.Builder
	sb.WriteString("INSERT INTO b2 VALUES ")
	for i := range rows {
		y := int64(in.rng.Intn(w.domain))
		rows[i] = relation.Tuple{relation.Int(key), relation.Int(y)}
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "(%d, %d)", key, y)
	}
	t0 := time.Now()
	_, err := in.writer.Exec(sb.String())
	d := time.Since(t0)
	out := []sample{{lat: d, first: d, write: true, failed: err != nil}}
	if err == nil {
		in.mirror = append(in.mirror, rows...)
	}
	lo := key - 1
	if lo < int64(w.domain) {
		lo = int64(w.domain)
	}
	return append(out, in.reads(lo)...)
}

// reads issues the range scan and the join of rows with b2.x >= lo, each
// checked against caql.Eval over the base tables plus every acknowledged
// insert (read-your-writes).
func (in *wmInst) reads(lo int64) []sample {
	scan := caql.MustParse(fmt.Sprintf("wr(X, Y) :- b2(X, Y) & X >= %d", lo))
	join := caql.MustParse(fmt.Sprintf("wj(X, Y, T, W) :- b2(X, Y) & b3(Y, T, W) & X >= %d", lo))
	src := in.oracleSource(lo)
	var out []sample
	for _, q := range []*caql.Query{scan, join} {
		t0 := time.Now()
		st, err := in.sess.QueryCtx(bgCtx, q)
		if err != nil {
			d := time.Since(t0)
			out = append(out, sample{lat: d, first: d, failed: true})
			continue
		}
		got, first := drain(st, t0, in.buf[:0])
		in.buf = got
		s := sample{lat: time.Since(t0), first: first}
		ref, rerr := caql.Eval(q, src)
		s.failed = st.Err() != nil || rerr != nil || sumOf(got) != sumOf(ref.Tuples())
		out = append(out, s)
	}
	return out
}

// oracleSource is the base tables plus the mirror, restricted to what a read
// with b2.x >= lo can touch: b2 rows with x >= lo and the b3 rows joining
// them. Both reads select on b2.x >= lo, so the restriction leaves their
// answers unchanged while keeping the check off the loop's critical path.
func (in *wmInst) oracleSource(lo int64) caql.MapSource {
	b2 := relation.New("b2", in.w.base["b2"].Schema())
	b3 := relation.New("b3", in.w.base["b3"].Schema())
	ys := map[int64]bool{}
	keep := func(t relation.Tuple) {
		if t[0].AsInt() < lo {
			return
		}
		b2.MustAppend(t)
		if y := t[1].AsInt(); !ys[y] {
			ys[y] = true
			for _, r := range in.w.b3ByX[y] {
				b3.MustAppend(r)
			}
		}
	}
	for _, t := range in.w.base["b2"].Tuples() {
		keep(t)
	}
	for i := len(in.mirror) - 1; i >= 0 && in.mirror[i][0].AsInt() >= lo; i-- {
		keep(in.mirror[i])
	}
	return caql.MapSource{"b2": b2, "b3": b3}
}

func (in *wmInst) exhausted() bool { return in.steps >= in.w.epochLen }

func (in *wmInst) snapshot() snap {
	sn := cmsSnap(in.cms, in.eng)
	sn.rows = int64(len(in.mirror))
	return sn
}

func (in *wmInst) engine() *remotedb.Engine { return in.eng }
func (in *wmInst) addr() string             { return in.addrS }

func (in *wmInst) close() {
	if in.sess != nil {
		in.sess.End()
	}
	if in.reader != nil {
		in.reader.Close()
	}
	if in.writer != nil {
		in.writer.Close()
	}
	in.srv.Close()
	in.eng.CloseWAL()
	os.RemoveAll(in.dir)
}
