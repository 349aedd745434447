// Command bridgebench is the end-to-end benchmark of the BrAID bridge. It
// generates seeded inputs, drives the bridge only through its public entry
// points (ie → cache → remotedb pool → loopback TCP → remotedb server and
// engine), checks every answer, and prints one JSON result line.
//
//	bridgebench --workload ie_hits --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result holds the end-to-end metrics; with --trace 1 it
// holds the per-layer breakdown (see README.md).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

var bgCtx = context.Background()

// sessionSeed derives session s's request-stream seed from the workload seed.
func sessionSeed(seed int64, s int) int64 { return seed*1_000_003 + int64(s)*7_919 + 1 }

// config is one invocation.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	tiny     bool   // tiny sizes, for the benchmark's own tests only
	workdir  string // scratch directory for WAL files
}

// setupsPerRun is how many set-ups a run times at least; setup_s is their
// median. The last one is the instance the loop measures.
const setupsPerRun = 5

// paritySteps is the fixed request prefix replayed traced and untraced.
const paritySteps = 24

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// newWorkload builds the named workload, its oracle included.
func newWorkload(cfg config) (bench, error) {
	sessions := min(2, runtime.NumCPU())
	switch cfg.workload {
	case "ie_hits":
		if cfg.tiny {
			return newIEHits(cfg.seed, 40, sessions, 7)
		}
		return newIEHits(cfg.seed, 200, sessions, 28)
	case "remote_stream":
		if cfg.tiny {
			return newRemoteStream(cfg.seed, 600, 200, sessions)
		}
		return newRemoteStream(cfg.seed, 10000, 4000, sessions)
	case "write_mix":
		if cfg.tiny {
			return newWriteMix(cfg.seed, 600, 200, 10, 8, 16<<10), nil
		}
		return newWriteMix(cfg.seed, 10000, 4000, 50, 150, 128<<10), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want ie_hits, remote_stream or write_mix)", cfg.workload)
}

// env is recorded with every run.
type env struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Trace      bool   `json:"trace"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	PoolSize   int    `json:"pool_size"`
	Sessions   int    `json:"sessions"`
	Fsync      string `json:"wal_fsync"`
	Setups     int    `json:"setups"`
	Requests   int    `json:"requests"`
}

// execute runs one benchmark invocation.
func execute(cfg config) (result, env, error) {
	w, err := newWorkload(cfg)
	if err != nil {
		return result{}, env{}, err
	}
	ev := env{Workload: cfg.workload, Seed: cfg.seed, Trace: cfg.trace, NumCPU: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), PoolSize: w.poolSize(),
		Sessions: w.sessions(), Fsync: w.fsync()}
	dir, cleanup, err := workDir(cfg.workdir)
	if err != nil {
		return result{}, ev, err
	}
	defer cleanup()
	d := time.Duration(cfg.seconds * float64(time.Second))
	if !cfg.trace {
		a := newArm(w, nil, filepath.Join(dir, "main"))
		defer a.close()
		for i := 0; i < setupsPerRun; i++ {
			if err := a.setUp(); err != nil {
				return result{}, ev, err
			}
		}
		if err := a.run(d); err != nil {
			return result{}, ev, err
		}
		ev.Setups, ev.Requests = len(a.setups), len(a.samples)
		f := a.failed()
		return result{Correct: f == 0, Attempted: len(a.samples), Failed: f, Metrics: endToEnd(a)}, ev, nil
	}
	return executeTraced(w, dir, d, ev)
}

// executeTraced checks traced/untraced count parity on a fixed request
// prefix, then runs an untraced and a traced arm in alternating chunks, half
// the run each, and derives the per-layer breakdown from the traced one.
func executeTraced(w bench, dir string, d time.Duration, ev env) (result, env, error) {
	pu, pt, ok, err := parity(w, dir)
	if err != nil {
		return result{}, ev, err
	}
	u := newArm(w, nil, filepath.Join(dir, "untraced"))
	t := newArm(w, newTracer(), filepath.Join(dir, "traced"))
	defer u.close()
	defer t.close()
	for _, a := range []*arm{u, t} {
		if err := a.setUp(); err != nil {
			return result{}, ev, err
		}
	}
	half := d / 2
	chunk := max(half/10, 100*time.Millisecond)
	for t.measured < half {
		for _, a := range []*arm{u, t} {
			if err := a.run(min(chunk, half-a.measured)); err != nil {
				return result{}, ev, err
			}
		}
	}
	off, err := measureOffline(t.inst, t.t.capturedSQL())
	if err != nil {
		return result{}, ev, err
	}
	attempted := len(pu) + len(pt) + len(u.samples) + len(t.samples)
	failed := u.failed() + t.failed()
	for _, s := range append(pu, pt...) {
		if s.failed {
			failed++
		}
	}
	ev.Setups, ev.Requests = len(t.setups), len(t.samples)
	return result{Correct: ok && failed == 0, Attempted: attempted, Failed: failed, Metrics: perLayer(t, u, off)}, ev, nil
}

// parity replays the same fixed request prefix on a fresh untraced and a
// fresh traced instance, one session, and reports whether the bridge's
// counters moved identically: the wrappers must not change the path.
func parity(w bench, dir string) (us, ts []sample, ok bool, err error) {
	var got [2]parityCounts
	for i, t := range []*tracer{nil, newTracer()} {
		a := newArm(w, t, filepath.Join(dir, fmt.Sprintf("parity-%d", i)))
		if err := a.setUp(); err != nil {
			return nil, nil, false, err
		}
		before := a.inst.snapshot()
		var ss []sample
		for n := 0; n < paritySteps && !a.inst.exhausted(); n++ {
			ss = append(ss, a.inst.step(0)...)
		}
		got[i] = a.inst.snapshot().sub(before).parity()
		a.close()
		if i == 0 {
			us = ss
		} else {
			ts = ss
		}
	}
	if got[0] != got[1] {
		fmt.Fprintf(os.Stderr, "bridgebench: parity mismatch: untraced %+v, traced %+v\n", got[0], got[1])
	}
	return us, ts, got[0] == got[1], nil
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bridgebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "ie_hits, remote_stream or write_mix")
	fs.Int64Var(&cfg.seed, "seed", 1, "input seed; the same seed gives the same inputs")
	fs.Float64Var(&cfg.seconds, "seconds", 10, "measured closed-loop time")
	fs.IntVar(&trace, "trace", 0, "1: report the per-layer breakdown instead of end-to-end metrics")
	fs.StringVar(&cfg.workdir, "workdir", filepath.Join(".bench_build", "work"), "scratch directory for WAL files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if cfg.seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintln(stderr, "bridgebench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	cfg.trace = trace == 1
	res, ev, err := execute(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "bridgebench:", err)
		return 1
	}
	envLine, _ := json.Marshal(ev) // plain strings and numbers: cannot fail
	fmt.Fprintf(stdout, "env %s\n", envLine)
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(stdout, "  %-32s %14.4f %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "bridgebench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }
