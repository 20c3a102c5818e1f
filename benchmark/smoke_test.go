package main

import (
	"math"
	"slices"
	"testing"
)

func metricNames(specs []metricSpec) []string {
	var names []string
	for _, m := range specs {
		names = append(names, m.Name)
	}
	slices.Sort(names)
	return names
}

func emittedNames(r *result) []string {
	var names []string
	for name := range r.Metrics {
		names = append(names, name)
	}
	slices.Sort(names)
	return names
}

// checkResult asserts that a run emitted exactly the declared metrics, with
// the declared units, every value finite, and no failed op.
func checkResult(t *testing.T, r *result, declared []metricSpec) {
	t.Helper()
	if got, want := emittedNames(r), metricNames(declared); !slices.Equal(got, want) {
		t.Errorf("emitted metrics differ from BENCHMARK.json:\n emitted  %v\n declared %v", got, want)
	}
	for _, m := range declared {
		got := r.Metrics[m.Name]
		if math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
			t.Errorf("%s = %v", m.Name, got.Value)
		}
		if got.Unit != m.Unit {
			t.Errorf("%s has unit %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
		}
	}
	if r.Failed != 0 || r.Attempted < 1 {
		t.Errorf("failed %d of %d attempted; notes: %v", r.Failed, r.Attempted, r.notes)
	}
}

// TestSmoke runs all five workloads and the ladder of each at 1 % scale and
// holds them to BENCHMARK.json, in both directions.
func TestSmoke(t *testing.T) {
	spec, err := loadSpec("")
	if err != nil {
		t.Fatal(err)
	}
	var declared, have []string
	for _, w := range spec.Workloads {
		declared = append(declared, w.Name)
	}
	for _, w := range workloads {
		have = append(have, w.name)
	}
	if !slices.Equal(declared, have) {
		t.Fatalf("BENCHMARK.json declares workloads %v, the program has %v", declared, have)
	}
	for _, m := range spec.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %s has bound %v", m.Name, m.Bound)
		}
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			defer runCleanups()
			cfg := smokeConfig(1)
			res, err := w.run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			checkResult(t, res, spec.EndToEnd)
			for _, m := range spec.EndToEnd {
				if res.Metrics[m.Name].Value <= 0 {
					t.Errorf("end-to-end metric %s = %v, must be positive", m.Name, res.Metrics[m.Name].Value)
				}
			}
			if res, err = runLadder(cfg, w); err != nil {
				t.Fatal(err)
			}
			checkResult(t, res, spec.PerLayer)
		})
	}
}

// The oracle's self-tests: an injected fault must show up as failed ops.
func TestOracleCatchesACorruptedReply(t *testing.T) {
	for _, w := range []*workload{findWorkload("embed-get-ngram"), findWorkload("server-mixed-tcp")} {
		cfg := smokeConfig(1)
		cfg.corruptReply = 1000
		res, err := w.run(cfg)
		runCleanups()
		if err != nil {
			t.Fatal(err)
		}
		if res.Failed != 1 {
			t.Errorf("%s: one corrupted reply gave failed = %d, want 1", w.name, res.Failed)
		}
	}
}

func TestOracleCatchesALostAcknowledgedWrite(t *testing.T) {
	defer runCleanups()
	cfg := smokeConfig(1)
	cfg.dropAcked = true
	res, err := findWorkload("server-durable-put").run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed == 0 {
		t.Errorf("kill + restart on a WAL cut short reported no failed op; notes: %v", res.notes)
	}
	// The ladder's strict variant: segments cut to their fsynced length, minus
	// one torn record.
	if res, err = runLadder(cfg, findWorkload("embed-get-ngram")); err != nil {
		t.Fatal(err)
	}
	if res.Failed == 0 {
		t.Errorf("synced-length truncation minus one record reported no failed op; notes: %v", res.notes)
	}
}
