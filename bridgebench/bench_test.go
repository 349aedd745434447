package main

import (
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"testing"

	"repro/internal/remotedb"
)

var workloads = []string{"ie_hits", "remote_stream", "write_mix"}

// declared reads the metric names the benchmark declares in BENCHMARK.json.
func declared(t *testing.T) (endToEnd, perLayer []string) {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, m := range spec.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range spec.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	sort.Strings(endToEnd)
	sort.Strings(perLayer)
	return endToEnd, perLayer
}

func checkMetrics(t *testing.T, got map[string]metric, want []string) {
	t.Helper()
	var names []string
	for n, m := range got {
		names = append(names, n)
		if m.Unit == "" {
			t.Errorf("metric %s has no unit", n)
		}
	}
	sort.Strings(names)
	if !reflect.DeepEqual(names, want) {
		t.Errorf("metrics %v, declared %v", names, want)
	}
}

// TestTinyRuns runs each workload at tiny size, untraced and traced: no
// request may fail, every declared metric must be emitted with a unit, and
// the traced run's parity check must pass.
func TestTinyRuns(t *testing.T) {
	e2e, layers := declared(t)
	for _, wl := range workloads {
		for _, trace := range []bool{false, true} {
			cfg := config{workload: wl, seed: 3, seconds: 0.3, trace: trace, tiny: true, workdir: t.TempDir()}
			res, _, err := execute(cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", wl, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d", wl, trace, res.Correct, res.Failed, res.Attempted)
			}
			want := e2e
			if trace {
				want = layers
			}
			checkMetrics(t, res.Metrics, want)
		}
	}
}

// TestParity replays the fixed request prefix traced and untraced: the
// wrappers must leave RemoteStreams, LazyAnswers, remote requests and
// parallel streams exactly as they were.
func TestParity(t *testing.T) {
	for _, wl := range workloads {
		w, err := newWorkload(config{workload: wl, seed: 5, tiny: true})
		if err != nil {
			t.Fatal(err)
		}
		_, _, ok, err := parity(w, t.TempDir())
		if err != nil || !ok {
			t.Errorf("%s: parity ok=%v err=%v", wl, ok, err)
		}
	}
}

// TestSeedIsTheInput checks that the inputs are a pure function of the seed.
func TestSeedIsTheInput(t *testing.T) {
	build := func(seed int64) *remoteStream {
		w, err := newRemoteStream(seed, 600, 200, 1)
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	a, b, c := build(7), build(7), build(8)
	if !reflect.DeepEqual(a.want, b.want) || a.qs[0].Canonical() != b.qs[0].Canonical() {
		t.Error("same seed gave different inputs")
	}
	if reflect.DeepEqual(a.want, c.want) {
		t.Error("different seeds gave the same inputs")
	}
}

// TestTracedClientForwardsCapabilities pins the wrappers to the pooled
// client's capability set, so tracing cannot move the CMS off the streaming
// or resumable path.
func TestTracedClientForwardsCapabilities(t *testing.T) {
	var c remotedb.Client = &tracedClient{}
	if _, ok := c.(remotedb.ContextClient); !ok {
		t.Error("traced client does not forward ContextClient")
	}
	if _, ok := c.(remotedb.StreamClient); !ok {
		t.Error("traced client does not forward StreamClient")
	}
	if _, ok := c.(remotedb.ResumableClient); !ok {
		t.Error("traced client does not forward ResumableClient")
	}
	if _, ok := c.(remotedb.EpochReporter); !ok {
		t.Error("traced client does not forward EpochReporter")
	}
	var st remotedb.TupleStream = &tracedResumableStream{&tracedStream{}}
	if _, ok := st.(remotedb.ResumeReporter); !ok {
		t.Error("traced stream does not forward ResumeReporter")
	}
}
