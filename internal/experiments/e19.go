package experiments

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"repro/internal/remotedb"
)

// E19 measures morsel-driven parallel execution in the remote engine: the
// same query shapes as E16 (scan, join, grouped aggregate) drained at
// DOP 1/2/4/8 over the same data.
//
// Part A — speedup vs degree of parallelism. CI machines (and this
// container) may expose a single core, where real CPU overlap is
// impossible, so the sweep runs under the engine's per-morsel service-time
// model (SetMorselStall): every morsel of base-table rows charges a fixed
// simulated fetch latency on whichever executor reads it. The serial scan
// sleeps once per morsel-sized run of examined rows and parallel workers
// sleep once per claimed morsel, so both arms pay identical total stall and
// the measured speedup is genuine overlap of that latency — the morsel
// pool's actual contribution, independent of host core count. This is the
// DOP-sweep analogue of E14's 1 ms service-time model.
//
// Part B — first-tuple latency. Parallelism must not buy throughput by
// selling interactivity: the bounded exchange hands the consumer the first
// worker batch as soon as any worker fills one. With the stall model off,
// the pipelined join is streamed over TCP serially and at DOP 4; the
// first-tuple ratio is the price of the exchange hop.
//
// Part C — engine accounting. The cumulative parallel counters (streams,
// morsels, workers, serial fallbacks) after the sweep confirm the parallel
// path actually ran and the DOP-1 arms actually fell back to serial.

// E19Shape is one Part A measurement: a query shape drained at one DOP.
type E19Shape struct {
	Shape   string  `json:"shape"` // "scan" | "join" | "agg"
	DOP     int     `json:"dop"`
	DrainUS int64   `json:"drain_us"`
	Tuples  int64   `json:"tuples"`
	Ops     int64   `json:"ops"`     // server tuple operations (one run)
	Speedup float64 `json:"speedup"` // drain(dop 1) / drain(this dop)
}

// E19Data is the machine-readable result (braid-bench -json writes it as
// part of BENCH_PR10.json).
type E19Data struct {
	Experiment   string `json:"experiment"`
	Rows         int    `json:"rows"`
	NumCPU       int    `json:"num_cpu"`
	GOMAXPROCS   int    `json:"gomaxprocs"`
	StallUS      int64  `json:"stall_us"`      // per-morsel simulated fetch latency
	MorselTuples int    `json:"morsel_tuples"` // scan split granularity

	DOPs   []int      `json:"dops"`
	Shapes []E19Shape `json:"shapes"`

	// Part A headline ratios: drain(dop 1) / drain(dop 4) per shape.
	ScanSpeedup4 float64 `json:"scan_speedup_4"`
	JoinSpeedup4 float64 `json:"join_speedup_4"`
	AggSpeedup4  float64 `json:"agg_speedup_4"`

	// Part B: median first-tuple latency of the streamed join, serial vs
	// DOP 4, stall model off.
	FirstTupleSerialUS int64   `json:"first_tuple_serial_us"`
	FirstTupleParUS    int64   `json:"first_tuple_par_us"`
	FirstTupleRatio    float64 `json:"first_tuple_ratio"` // par / serial

	// Part C: cumulative engine counters after the whole run.
	ParStreams   int64 `json:"par_streams"`
	ParMorsels   int64 `json:"par_morsels"`
	ParWorkers   int64 `json:"par_workers"`
	ParFallbacks int64 `json:"par_fallbacks"`
}

// e19Drain executes sql engine-direct and returns the median drain time
// plus the (run-stable) ops and cardinality, warming once first so plan
// compilation is not in the timing.
func e19Drain(eng *remotedb.Engine, sql string, iters int) (drain time.Duration, ops, tuples int64, err error) {
	if _, _, err := eng.ExecuteSQL(sql); err != nil {
		return 0, 0, 0, err
	}
	ds := make([]time.Duration, 0, iters)
	for i := 0; i < iters; i++ {
		t0 := time.Now()
		rel, o, err := eng.ExecuteSQL(sql)
		if err != nil {
			return 0, 0, 0, err
		}
		ds = append(ds, time.Since(t0))
		ops, tuples = o, int64(rel.Len())
	}
	sort.Slice(ds, func(a, b int) bool { return ds[a] < ds[b] })
	return ds[len(ds)/2], ops, tuples, nil
}

// RunE19 runs the sweep at the given scale. stall is the per-morsel
// simulated fetch latency for Part A; Part B always runs with it off.
func RunE19(rows, iters int, stall time.Duration) (*E19Data, error) {
	eng := remotedb.NewEngine()
	if err := e16Tables(eng, rows, 500); err != nil {
		return nil, err
	}
	data := &E19Data{
		Experiment:   "E19 morsel-driven parallel execution",
		Rows:         rows,
		NumCPU:       runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		StallUS:      stall.Microseconds(),
		MorselTuples: eng.MorselSize(),
		DOPs:         []int{1, 2, 4, 8},
	}

	// Part A: the DOP sweep under the service-time model, engine-direct so
	// the wire transport is not in the denominator. ParallelMinRows stays at
	// its default — the workload is far above the threshold, which is itself
	// part of what the sweep exercises (the DOP-1 arms count as fallbacks).
	eng.SetMorselStall(stall)
	type shapeArm struct{ shape, sql string }
	arms := []shapeArm{{"scan", e16Scan}, {"join", e16Join}, {"agg", e16Agg}}
	base := map[string]time.Duration{}
	for _, dop := range data.DOPs {
		eng.SetParallelism(dop)
		for _, a := range arms {
			d, ops, tuples, err := e19Drain(eng, a.sql, iters)
			if err != nil {
				return nil, fmt.Errorf("%s at dop %d: %w", a.shape, dop, err)
			}
			s := E19Shape{Shape: a.shape, DOP: dop,
				DrainUS: d.Microseconds(), Tuples: tuples, Ops: ops}
			if dop == 1 {
				base[a.shape] = d
			} else if b := base[a.shape]; b > 0 && d > 0 {
				s.Speedup = float64(b) / float64(d)
			}
			if dop == 1 {
				s.Speedup = 1
			}
			data.Shapes = append(data.Shapes, s)
			switch {
			case dop == 4 && a.shape == "scan":
				data.ScanSpeedup4 = s.Speedup
			case dop == 4 && a.shape == "join":
				data.JoinSpeedup4 = s.Speedup
			case dop == 4 && a.shape == "agg":
				data.AggSpeedup4 = s.Speedup
			}
		}
	}

	// Part B: streamed first-tuple latency with the stall model off. The
	// exchange must not regress interactivity: the first joined tuple at
	// DOP 4 should cost about what it costs serially.
	eng.SetMorselStall(0)
	srv := remotedb.NewServerWithOptions(eng, remotedb.ServerOptions{})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	p, err := remotedb.DialPool(addr, remotedb.PoolOptions{
		Size:        1,
		FrameTuples: 512,
		Costs:       remotedb.DefaultCosts(),
	})
	if err != nil {
		return nil, err
	}
	defer p.Close()
	ftIters := 2*iters + 3 // first-tuple medians are noisier than drains
	eng.SetParallelism(1)
	ftSerial, _, _, err := e16Measure(p, e16Join, ftIters)
	if err != nil {
		return nil, fmt.Errorf("first-tuple serial: %w", err)
	}
	eng.SetParallelism(4)
	ftPar, _, _, err := e16Measure(p, e16Join, ftIters)
	if err != nil {
		return nil, fmt.Errorf("first-tuple dop 4: %w", err)
	}
	data.FirstTupleSerialUS = ftSerial.Microseconds()
	data.FirstTupleParUS = ftPar.Microseconds()
	if ftSerial > 0 {
		data.FirstTupleRatio = float64(ftPar) / float64(ftSerial)
	}

	st := eng.ParallelStats()
	data.ParStreams = st.Streams
	data.ParMorsels = st.Morsels
	data.ParWorkers = st.Workers
	data.ParFallbacks = st.SerialFallbacks
	return data, nil
}

// RunE19Bench runs E19 at the braid-bench default scale: the E16 40k-row
// workload under a 1 ms per-morsel stall (about 40 morsels per scan of the
// driver table, so roughly 40 ms of simulated fetch latency per serial
// drain for the parallel arms to overlap).
func RunE19Bench() (*E19Data, error) {
	return RunE19(40000, 3, time.Millisecond)
}

// E19Render formats the measurement as the experiment table.
func E19Render(d *E19Data) *Table {
	t := &Table{
		ID:     "E19",
		Title:  "morsel-driven parallel execution: speedup vs DOP",
		Claim:  "eligible plans split base-table scans into morsels claimed by a bounded worker pool; drains speed up with DOP under the per-morsel service-time model while the bounded exchange keeps first-tuple latency at the serial price",
		Header: []string{"shape", "dop", "drain(us)", "speedup", "tuples", "serverOps"},
	}
	for _, s := range d.Shapes {
		t.AddRow(s.Shape, fi(int64(s.DOP)), fi(s.DrainUS), ff(s.Speedup),
			fi(s.Tuples), fi(s.Ops))
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("rows=%d, morsel=%d tuples, per-morsel stall=%dus, host NumCPU=%d; stall charges both arms identically, so speedup is overlap of simulated fetch latency, not host core count (acceptance: agg dop4 >= 1.8x)",
			d.Rows, d.MorselTuples, d.StallUS, d.NumCPU),
		fmt.Sprintf("dop4 speedups: scan %.2fx, join %.2fx, agg %.2fx", d.ScanSpeedup4, d.JoinSpeedup4, d.AggSpeedup4),
		fmt.Sprintf("streamed join first tuple (stall off): serial %dus vs dop4 %dus (%.2fx; acceptance: <= 1.2x plus scheduler noise)",
			d.FirstTupleSerialUS, d.FirstTupleParUS, d.FirstTupleRatio),
		fmt.Sprintf("engine counters: %d parallel streams, %d morsels, %d workers, %d serial fallbacks (the dop-1 arms)",
			d.ParStreams, d.ParMorsels, d.ParWorkers, d.ParFallbacks))
	return t
}

// E19ParallelExecution runs the experiment at default scale for the bench
// registry.
func E19ParallelExecution() *Table {
	d, err := RunE19Bench()
	if err != nil {
		return &Table{ID: "E19", Title: "morsel-driven parallel execution (failed)",
			Header: []string{"error"}, Rows: [][]string{{err.Error()}}}
	}
	return E19Render(d)
}
