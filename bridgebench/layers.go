package main

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"time"

	"repro/internal/remotedb"
)

// offline holds the per-tuple costs of the engine and the wire, measured
// after the traced loop by replaying captured SQL two ways: drained from the
// engine in-process, and drained through a pooled client over loopback TCP.
type offline struct {
	engineNSPerTuple float64
	wireNSPerTuple   float64
	allocsPerTuple   float64
	bytesPerTuple    float64
	opsPerTuple      float64
	planUS           float64
}

// offlineSQL and offlineReps bound the replay so the traced run stays short.
const (
	offlineSQL  = 12
	offlineReps = 3
)

type drainCost struct {
	ns, mallocs, tuples, ops int64
}

func costOf(f func() (tuples, ops int64, err error)) (drainCost, error) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	tuples, ops, err := f()
	ns := int64(time.Since(t0))
	runtime.ReadMemStats(&m1)
	return drainCost{ns: ns, mallocs: int64(m1.Mallocs - m0.Mallocs), tuples: tuples, ops: ops}, err
}

// engineDrain runs sql on the engine's streaming path (the one the framed
// server uses), falling back to the materializing executor.
func engineDrain(eng *remotedb.Engine, sql string) (int64, int64, error) {
	es, ok := eng.ExecuteSQLPipelineCtx(context.Background(), sql)
	if !ok {
		rel, ops, err := eng.ExecuteSQL(sql)
		if err != nil {
			return 0, 0, err
		}
		return int64(rel.Len()), ops, nil
	}
	var n int64
	for {
		if _, ok := es.Next(); !ok {
			break
		}
		n++
	}
	return n, es.Ops(), nil
}

func clientDrain(c remotedb.StreamClient, sql string) (int64, int64, error) {
	st, err := c.ExecStream(context.Background(), sql)
	if err != nil {
		return 0, 0, err
	}
	defer st.Close()
	var n int64
	for {
		if _, ok := st.Next(); !ok {
			break
		}
		n++
	}
	return n, st.Ops(), st.Err()
}

func medianCost(cs []drainCost) drainCost {
	sort.Slice(cs, func(i, j int) bool { return cs[i].ns < cs[j].ns })
	m := cs[len(cs)/2]
	ms := make([]int64, len(cs))
	for i, c := range cs {
		ms[i] = c.mallocs
	}
	sort.Slice(ms, func(i, j int) bool { return ms[i] < ms[j] })
	m.mallocs = ms[len(ms)/2]
	return m
}

// measureOffline replays the first captured statements against the
// instance's engine and server.
func measureOffline(inst instance, sqls []string) (offline, error) {
	var off offline
	if len(sqls) > offlineSQL {
		sqls = sqls[:offlineSQL]
	}
	if len(sqls) == 0 {
		return off, nil
	}
	eng := inst.engine()
	pool, err := remotedb.DialPool(inst.addr(), remotedb.PoolOptions{Size: 1})
	if err != nil {
		return off, err
	}
	defer pool.Close()
	runtime.GC()
	var engNS, cliNS, engMallocs, cliMallocs, tuples, ops int64
	var plans []time.Duration
	for _, sql := range sqls {
		var ec, cc []drainCost
		for r := 0; r < offlineReps; r++ {
			e, err := costOf(func() (int64, int64, error) { return engineDrain(eng, sql) })
			if err != nil {
				return off, fmt.Errorf("engine replay of %q: %w", sql, err)
			}
			c, err := costOf(func() (int64, int64, error) { return clientDrain(pool, sql) })
			if err != nil {
				return off, fmt.Errorf("client replay of %q: %w", sql, err)
			}
			if e.tuples != c.tuples {
				return off, fmt.Errorf("replay of %q: engine %d tuples, client %d", sql, e.tuples, c.tuples)
			}
			ec, cc = append(ec, e), append(cc, c)
			t0 := time.Now()
			if _, err := eng.PlanForSQL(sql); err != nil {
				return off, err
			}
			plans = append(plans, time.Since(t0))
		}
		e, c := medianCost(ec), medianCost(cc)
		engNS += e.ns
		cliNS += c.ns
		engMallocs += e.mallocs
		cliMallocs += c.mallocs
		tuples += e.tuples
		ops += e.ops
	}
	off.planUS = float64(medianDur(plans)) / 1e3
	bytes, err := relayBytes(inst.addr(), sqls)
	if err != nil {
		return off, err
	}
	if tuples > 0 {
		t := float64(tuples)
		off.engineNSPerTuple = float64(engNS) / t
		off.wireNSPerTuple = float64(cliNS-engNS) / t
		off.allocsPerTuple = float64(cliMallocs-engMallocs) / t
		off.opsPerTuple = float64(ops) / t
		off.bytesPerTuple = float64(bytes) / t
	}
	return off, nil
}

// relayBytes drains each statement once through the byte-counting relay and
// returns the bytes the server sent.
func relayBytes(addr string, sqls []string) (int64, error) {
	r, err := startRelay(addr)
	if err != nil {
		return 0, err
	}
	pool, err := remotedb.DialPool(r.addr(), remotedb.PoolOptions{Size: 1})
	if err != nil {
		r.close()
		return 0, err
	}
	for _, sql := range sqls {
		if _, _, err := clientDrain(pool, sql); err != nil {
			pool.Close()
			r.close()
			return 0, err
		}
	}
	pool.Close()
	r.close()
	return r.down.Load(), nil
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// perLayer derives the per-layer metrics of a traced arm; u is the untraced
// arm run beside it, for the tracing overhead.
func perLayer(tr, u *arm, off offline) map[string]metric {
	d := tr.delta
	tc := d.tc
	var readNS, nReads int64
	for _, s := range tr.samples {
		if !s.write {
			readNS += int64(s.lat)
			nReads++
		}
	}
	// Requests through the CMS are asks when the IE runs, CAQL queries when
	// the harness queries sessions directly.
	reqCMS := d.asks
	var ieSelf int64
	if d.asks > 0 {
		ieSelf = readNS - tc.dsNS
	} else {
		reqCMS = d.cms.Queries
	}
	cacheSelf := tc.dsNS - tc.fgClientNS
	est := (off.engineNSPerTuple + off.wireNSPerTuple) * float64(tc.fgTuples)
	unattributed := float64(readNS-ieSelf-cacheSelf) - est

	writeLat := latencies(tr.samples, writes, false)
	trLat := latencies(tr.samples, all, false)
	uLat := latencies(u.samples, all, false)
	frames := append([]time.Duration(nil), tr.frames...)
	sort.Slice(frames, func(i, j int) bool { return frames[i] < frames[j] })

	return map[string]metric{
		"ie.self_ms_per_req":            {ratio(ieSelf, d.asks) / 1e6, "ms"},
		"ie.cms_queries_per_req":        {ratio(tc.dsQueries, d.asks), "count"},
		"cache.self_us_per_query":       {ratio(cacheSelf, tc.dsQueries) / 1e3, "us"},
		"cache.hit_ratio":               {ratio(d.cms.CacheHits, d.cms.Queries), "ratio"},
		"cache.exact_hit_share":         {ratio(d.cms.ExactHits, d.cms.CacheHits), "ratio"},
		"cache.remote_requests_per_req": {ratio(d.cms.RemoteRequests, reqCMS), "count"},
		"cache.prefetch_hit_ratio":      {ratio(d.cms.PrefetchHits, d.cms.Prefetches), "ratio"},
		"cache.evictions_per_req":       {ratio(d.evictions, reqCMS), "count"},
		"cache.lazy_miss_ratio":         {ratio(tc.lazyMisses, d.cms.RemoteRequests), "ratio"},
		"pool.first_frame_us_p50":       {float64(pct(frames, 0.50)) / 1e3, "us"},
		"pool.drain_us_per_ktuple":      {ratio(tc.drainNS, tc.drainTups), "us/ktuple"},
		"pool.frames_per_req":           {ratio(d.pool.FramesRecv, tc.calls), "count"},
		"pool.retries":                  {float64(d.cms.Retries + d.pool.Reconnects), "count"},
		"pool.failures":                 {float64(d.cms.RemoteFailures + d.pool.ProbeFailures + tc.failures), "count"},
		"wire.us_per_ktuple":            {off.wireNSPerTuple, "us/ktuple"},
		"wire.allocs_per_tuple":         {off.allocsPerTuple, "allocs/tuple"},
		"wire.bytes_per_tuple":          {off.bytesPerTuple, "bytes/tuple"},
		"engine.exec_us_per_ktuple":     {off.engineNSPerTuple, "us/ktuple"},
		"engine.ops_per_tuple":          {off.opsPerTuple, "ops/tuple"},
		"engine.plan_us":                {off.planUS, "us"},
		"engine.plancache_hit_ratio":    {ratio(d.plan.Hits, d.plan.Hits+d.plan.Misses), "ratio"},
		"engine.parallel_ratio":         {ratio(d.par.Streams, tc.selects), "ratio"},
		"engine.morsels_per_req":        {ratio(d.par.Morsels, tc.selects), "count"},
		"wal.bytes_per_row":             {ratio(d.wal.Bytes, d.rows), "bytes/row"},
		"wal.syncs":                     {float64(d.wal.Syncs), "count"},
		"wal.checkpoints":               {float64(d.wal.Rotations), "count"},
		"writer.p50_ms":                 {msOf(pct(writeLat, 0.50)), "ms"},
		"writer.p99_ms":                 {msOf(pct(writeLat, 0.99)), "ms"},
		"trace.overhead_ratio":          {ratio(int64(pct(trLat, 0.50)), int64(pct(uLat, 0.50))), "ratio"},
		"unattributed_ms_per_req":       {unattributed / float64(max(nReads, 1)) / 1e6, "ms"},
	}
}
