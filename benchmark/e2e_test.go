package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// A short fanout run against a spawned stopss-server: every delivery
// agrees with the oracle, and the run yields every metric BENCHMARK.json
// lists, end to end and per layer.
func TestFanoutEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and spawns stopss-server")
	}
	e, err := newEnv(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()
	e.replay = 100
	sp, err := loadSpec(e.root)
	if err != nil {
		t.Fatal(err)
	}

	// The contract and the code name the same workloads.
	var listed []string
	for _, w := range sp.Workloads {
		listed = append(listed, w.Name)
	}
	if !reflect.DeepEqual(listed, workloadNames) {
		t.Errorf("BENCHMARK.json lists workloads %v, the harness has %v", listed, workloadNames)
	}

	s, err := e.measure("fanout", 1, 1.5, false)
	if err != nil {
		t.Fatal(err)
	}
	if s.failed != 0 || s.attempted == 0 {
		t.Fatalf("%d of %d operations failed: %v", s.failed, s.attempted, s.failures)
	}
	if len(s.setupS) != setups || len(s.paced) == 0 || len(s.capacity) == 0 {
		t.Fatalf("run shape: %d set-ups, %d paced, %d capacity publishes", len(s.setupS), len(s.paced), len(s.capacity))
	}
	r, err := s.endToEnd().report(s, sp.EndToEnd)
	if err != nil {
		t.Fatal(err)
	}
	for name, v := range r.Metrics {
		if v.Value <= 0 {
			t.Errorf("end-to-end metric %s = %v, want a positive number", name, v.Value)
		}
	}

	// The traced run of the same workload: every per-layer metric, and a
	// span file whose spans nest and never run backwards.
	s, err = e.measure("fanout", 1, 1.5, true)
	if err != nil {
		t.Fatal(err)
	}
	m, err := e.perLayer(s, s.endToEnd())
	if err != nil {
		t.Fatal(err)
	}
	r, err = m.report(s, sp.PerLayer)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Correct {
		t.Fatalf("traced run failed: %v", s.failures)
	}
	for _, name := range []string{"journal.append_us", "overlay.hop_us"} {
		if v := r.Metrics[name].Value; v != 0 {
			t.Errorf("%s = %v on fanout, which has neither journal nor overlay", name, v)
		}
	}
	data, err := os.ReadFile(filepath.Join(e.out, "trace-fanout.json"))
	if err != nil {
		t.Fatal(err)
	}
	var tf traceFile
	if err := json.Unmarshal(data, &tf); err != nil {
		t.Fatal(err)
	}
	if len(tf.Spans) == 0 || len(tf.Budget) == 0 {
		t.Fatalf("span file has %d spans and %d budget rows", len(tf.Spans), len(tf.Budget))
	}
	children := make([]int64, len(tf.Spans))
	for i, sp := range tf.Spans {
		if sp.End < sp.Start {
			t.Fatalf("span %d (%s) ends before it starts", i, sp.Name)
		}
		if sp.Parent >= i {
			t.Fatalf("span %d (%s) names a later span as parent", i, sp.Name)
		}
		// Sends overlap each other on the notifier's workers; only the
		// synchronous children of a span must fit inside it.
		if sp.Parent >= 0 && sp.Name != "notify.send" {
			children[sp.Parent] += sp.End - sp.Start
		}
	}
	for i, sp := range tf.Spans {
		if self := sp.End - sp.Start - children[i]; self < 0 {
			t.Errorf("span %d (%s) has negative self time %dns", i, sp.Name, self)
		}
	}
}
