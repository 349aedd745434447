package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/bridge"
	"repro/internal/cache"
	"repro/internal/remotedb"
)

// sample is one completed request of the closed loop.
type sample struct {
	at     time.Duration // completion, in measured time since the arm started
	lat    time.Duration // submit → last answer drained
	first  time.Duration // submit → first answer (or end of an empty answer)
	write  bool          // an acknowledged INSERT batch (write_mix)
	failed bool          // error, typed failure, or wrong answer
}

// instance is one set-up bridge: data loaded, server listening, clients
// dialed, warm-up done. step runs one closed-loop step of session s.
type instance interface {
	step(s int) []sample
	// exhausted reports that the instance has run its fixed number of steps
	// and must be replaced by a fresh one (write_mix's fixed-length epochs).
	// Every session's loop calls it, so an instance with several sessions
	// must answer it without racing step.
	exhausted() bool
	snapshot() snap
	engine() *remotedb.Engine
	addr() string
	close()
}

// bench builds instances. The oracle (expected answers) is computed once
// per process in newWorkload and is not part of set-up time.
type bench interface {
	sessions() int
	poolSize() int
	fsync() string
	setup(t *tracer, dir string) (instance, error)
}

// snap is a point-in-time reading of every counter the per-layer breakdown
// and the parity check use.
type snap struct {
	cms       bridge.SourceStats
	pool      remotedb.Stats
	plan      remotedb.PlanCacheStats
	par       remotedb.ParallelStats
	wal       remotedb.WALStats
	asks      int64
	rows      int64 // rows inserted by acknowledged writes
	evictions int64
	tc        tcounts // the arm's tracer, when traced
}

// combine applies op field by field to the counters the metrics use.
func (a snap) combine(b snap, op func(x, y int64) int64) snap {
	d := a
	for _, f := range []struct {
		x *int64
		y int64
	}{
		{&d.cms.Queries, b.cms.Queries},
		{&d.cms.CacheHits, b.cms.CacheHits},
		{&d.cms.ExactHits, b.cms.ExactHits},
		{&d.cms.Prefetches, b.cms.Prefetches},
		{&d.cms.PrefetchHits, b.cms.PrefetchHits},
		{&d.cms.LazyAnswers, b.cms.LazyAnswers},
		{&d.cms.RemoteRequests, b.cms.RemoteRequests},
		{&d.cms.RemoteStreams, b.cms.RemoteStreams},
		{&d.cms.Retries, b.cms.Retries},
		{&d.cms.RemoteFailures, b.cms.RemoteFailures},
		{&d.pool.FramesRecv, b.pool.FramesRecv},
		{&d.pool.Reconnects, b.pool.Reconnects},
		{&d.pool.ProbeFailures, b.pool.ProbeFailures},
		{&d.plan.Hits, b.plan.Hits},
		{&d.plan.Misses, b.plan.Misses},
		{&d.par.Streams, b.par.Streams},
		{&d.par.Morsels, b.par.Morsels},
		{&d.wal.Bytes, b.wal.Bytes},
		{&d.wal.Syncs, b.wal.Syncs},
		{&d.wal.Rotations, b.wal.Rotations},
		{&d.asks, b.asks},
		{&d.rows, b.rows},
		{&d.evictions, b.evictions},
		{&d.tc.dsNS, b.tc.dsNS},
		{&d.tc.dsQueries, b.tc.dsQueries},
		{&d.tc.fgClientNS, b.tc.fgClientNS},
		{&d.tc.fgTuples, b.tc.fgTuples},
		{&d.tc.selects, b.tc.selects},
		{&d.tc.failures, b.tc.failures},
		{&d.tc.drainNS, b.tc.drainNS},
		{&d.tc.drainTups, b.tc.drainTups},
		{&d.tc.calls, b.tc.calls},
		{&d.tc.lazyMisses, b.tc.lazyMisses},
	} {
		*f.x = op(*f.x, f.y)
	}
	return d
}

func (a snap) sub(b snap) snap { return a.combine(b, func(x, y int64) int64 { return x - y }) }
func (a snap) add(b snap) snap { return a.combine(b, func(x, y int64) int64 { return x + y }) }

// parityCounts are the counters a traced and an untraced run of the same
// request sequence must agree on exactly.
type parityCounts struct {
	Queries, RemoteRequests, RemoteStreams, LazyAnswers, ParallelStreams int64
}

func (s snap) parity() parityCounts {
	return parityCounts{
		Queries:         s.cms.Queries,
		RemoteRequests:  s.cms.RemoteRequests,
		RemoteStreams:   s.cms.RemoteStreams,
		LazyAnswers:     s.cms.LazyAnswers,
		ParallelStreams: s.par.Streams,
	}
}

// cmsSnap reads the CMS-side counters of a snap.
func cmsSnap(c *cache.CMS, eng *remotedb.Engine) snap {
	return snap{
		cms:       c.Stats(),
		pool:      c.RDI().Stats(),
		plan:      eng.PlanCacheStats(),
		par:       eng.ParallelStats(),
		wal:       eng.WALStats(),
		evictions: c.Manager().Evictions(),
	}
}

// arm drives one configuration (traced or not) through closed-loop chunks,
// replacing exhausted instances with fresh ones.
type arm struct {
	w      bench
	t      *tracer
	dir    string
	inst   instance
	setups []time.Duration
	epochs int

	samples  []sample
	measured time.Duration
	alloc    uint64
	delta    snap            // counter deltas over measured time only
	frames   []time.Duration // first-frame samples over measured time
}

func newArm(w bench, t *tracer, dir string) *arm { return &arm{w: w, t: t, dir: dir} }

// setUp builds a fresh instance, timing it as one set-up.
func (a *arm) setUp() error {
	if a.inst != nil {
		a.inst.close()
		a.inst = nil
	}
	a.epochs++
	dir := filepath.Join(a.dir, fmt.Sprintf("epoch-%d", a.epochs))
	t0 := time.Now()
	inst, err := a.w.setup(a.t, dir)
	if err != nil {
		return err
	}
	a.setups = append(a.setups, time.Since(t0))
	a.inst = inst
	return nil
}

// run measures the closed loop for d (summed over epochs).
func (a *arm) run(d time.Duration) error {
	for left := d; left > 0; {
		if a.inst == nil || a.inst.exhausted() {
			if err := a.setUp(); err != nil {
				return err
			}
		}
		left -= a.chunk(left)
	}
	return nil
}

// chunk runs the sessions' loops until d elapses or the instance is
// exhausted, accumulating samples, allocation and counter deltas.
func (a *arm) chunk(d time.Duration) time.Duration {
	n := a.w.sessions()
	before := a.inst.snapshot()
	before.tc = a.t.counts()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	t0 := time.Now()
	deadline := t0.Add(d)
	per := make([][]sample, n)
	var wg sync.WaitGroup
	for s := 0; s < n; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for time.Now().Before(deadline) && !a.inst.exhausted() {
				ss := a.inst.step(s)
				at := a.measured + time.Since(t0)
				for i := range ss {
					ss[i].at = at
				}
				per[s] = append(per[s], ss...)
			}
		}(s)
	}
	wg.Wait()
	el := time.Since(t0)
	runtime.ReadMemStats(&ms1)
	a.measured += el
	a.alloc += ms1.TotalAlloc - ms0.TotalAlloc
	after := a.inst.snapshot()
	after.tc = a.t.counts()
	a.delta = a.delta.add(after.sub(before))
	if a.t != nil {
		a.frames = append(a.frames, a.t.framesBetween(before.tc, after.tc)...)
	}
	for _, p := range per {
		a.samples = append(a.samples, p...)
	}
	return el
}

func (a *arm) close() {
	if a.inst != nil {
		a.inst.close()
		a.inst = nil
	}
}

func (a *arm) failed() int {
	n := 0
	for _, s := range a.samples {
		if s.failed {
			n++
		}
	}
	return n
}

// latencies returns the sorted latencies of the selected samples.
func latencies(ss []sample, keep func(sample) bool, first bool) []time.Duration {
	var out []time.Duration
	for _, s := range ss {
		if !keep(s) {
			continue
		}
		if first {
			out = append(out, s.first)
		} else {
			out = append(out, s.lat)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func all(sample) bool              { return true }
func writes(s sample) bool         { return s.write }
func msOf(d time.Duration) float64 { return float64(d) / 1e6 }

// pct is the nearest-rank percentile of a sorted slice.
func pct(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

func medianDur(ds []time.Duration) time.Duration {
	c := append([]time.Duration(nil), ds...)
	sort.Slice(c, func(i, j int) bool { return c[i] < c[j] })
	if len(c) == 0 {
		return 0
	}
	if len(c)%2 == 1 {
		return c[len(c)/2]
	}
	return (c[len(c)/2-1] + c[len(c)/2]) / 2
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// window is the slice of measured time the steady metrics are computed over.
const window = time.Second

// windows splits samples by completion time into whole windows of measured
// time; a trailing part shorter than a window is dropped.
func windows(ss []sample, measured time.Duration) [][]sample {
	out := make([][]sample, int(measured/window))
	for _, s := range ss {
		if i := int(s.at / window); i < len(out) {
			out[i] = append(out[i], s)
		}
	}
	return out
}

// windowMedian is the median over windows of f. The host's speed drifts
// over seconds, so the typical window is steadier than the whole-run pool.
func windowMedian(ws [][]sample, f func([]sample) float64) float64 {
	var vs []float64
	for _, w := range ws {
		if len(w) > 0 {
			vs = append(vs, f(w))
		}
	}
	sort.Float64s(vs)
	switch n := len(vs); {
	case n == 0:
		return 0
	case n%2 == 1:
		return vs[n/2]
	default:
		return (vs[n/2-1] + vs[n/2]) / 2
	}
}

// endToEnd computes the user-visible metrics of an untraced arm: p50s as
// medians over one-second windows, p99 and qps over the whole run (p99 needs
// every sample to have ten beyond it).
func endToEnd(a *arm) map[string]metric {
	ws := windows(a.samples, a.measured)
	p50 := func(first bool) func([]sample) float64 {
		return func(w []sample) float64 { return msOf(pct(latencies(w, all, first), 0.50)) }
	}
	n := float64(len(a.samples))
	return map[string]metric{
		"p50_ms":           {windowMedian(ws, p50(false)), "ms"},
		"p99_ms":           {msOf(pct(latencies(a.samples, all, false), 0.99)), "ms"},
		"first_p50_ms":     {windowMedian(ws, p50(true)), "ms"},
		"qps":              {n / a.measured.Seconds(), "1/s"},
		"alloc_kb_per_req": {float64(a.alloc) / 1024 / n, "KiB"},
		"setup_s":          {medianDur(a.setups).Seconds(), "s"},
	}
}

// workDir returns a fresh scratch directory for one run's WAL files.
func workDir(base string) (string, func(), error) {
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", nil, err
	}
	dir, err := os.MkdirTemp(base, "run-")
	if err != nil {
		return "", nil, err
	}
	return dir, func() { os.RemoveAll(dir) }, nil
}
