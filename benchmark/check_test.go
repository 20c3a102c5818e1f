package main

import (
	"math"
	"testing"
)

func testSpec() *benchSpec {
	s := &benchSpec{
		EndToEnd: []metricSpec{{Name: "ops_per_s", Unit: "ops/s", Better: "higher", Bound: 0.10}, {Name: "op_p50_us", Unit: "us", Better: "lower", Bound: 0.10}},
		PerLayer: []metricSpec{{Name: "core.get_ns", Unit: "ns", Better: "lower"}},
	}
	s.Workloads = append(s.Workloads, struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}{Name: "w"})
	return s
}

func recs(metric string, failed int64, values ...float64) []*record {
	var out []*record
	for _, v := range values {
		r := newResult()
		r.Failed = failed
		r.set(metric, v, "")
		out = append(out, &record{Workload: "w", result: *r})
	}
	return out
}

func verdictOf(t *testing.T, rows []checkRow, metric string) string {
	t.Helper()
	for _, r := range rows {
		if r.Metric == metric {
			return r.Verdict
		}
	}
	t.Fatalf("no row for %s in %+v", metric, rows)
	return ""
}

func TestCompareAppliesEachMetricsBoundInItsDirection(t *testing.T) {
	for _, c := range []struct {
		metric string
		a, b   []float64
		want   string
	}{
		{"ops_per_s", []float64{100, 101, 99}, []float64{95, 96, 94}, verdictOK},         // 5 % lower, bound 10 %
		{"ops_per_s", []float64{100, 101, 99}, []float64{85, 86, 84}, verdictWorse},      // 15 % lower
		{"ops_per_s", []float64{100, 101, 99}, []float64{150, 151, 149}, verdictOK},      // higher is better
		{"op_p50_us", []float64{10, 10.1, 9.9}, []float64{12, 12.1, 11.9}, verdictWorse}, // 20 % higher
		{"op_p50_us", []float64{10, 10.1, 9.9}, []float64{5, 5.1, 4.9}, verdictOK},
		{"ops_per_s", []float64{100, 140, 60, 120, 80}, []float64{70, 71, 69}, verdictUnresolved}, // A's spread > bound
		{"core.get_ns", []float64{100}, []float64{900}, verdictInfo},                              // per-layer never gates
	} {
		rows := compare(testSpec(), recs(c.metric, 0, c.a...), recs(c.metric, 0, c.b...))
		if got := verdictOf(t, rows, c.metric); got != c.want {
			t.Errorf("%s %v -> %v: verdict %q, want %q", c.metric, c.a, c.b, got, c.want)
		}
	}
}

func TestCompareTreatsAnyFailedOpAsWorse(t *testing.T) {
	rows := compare(testSpec(), recs("ops_per_s", 0, 100), recs("ops_per_s", 1, 100))
	if got := verdictOf(t, rows, "failed"); got != verdictWorse {
		t.Fatalf("one failed op on side B: verdict %q, want %q", got, verdictWorse)
	}
	rows = compare(testSpec(), recs("ops_per_s", 0, 100), recs("ops_per_s", 0, 100))
	if got := verdictOf(t, rows, "failed"); got != verdictOK {
		t.Fatalf("no failed op: verdict %q, want %q", got, verdictOK)
	}
}

func TestQuartileSpreadMatchesPythonsQuantiles(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	got := quartileSpread([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if want := (8.25 - 2.75) / 5.5; math.Abs(got-want) > 1e-12 {
		t.Fatalf("spread %v, want %v", got, want)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if got, want := quartileSpread([]float64{1, 2, 4}), 1.5; math.Abs(got-want) > 1e-12 {
		t.Fatalf("spread %v, want %v", got, want)
	}
	if got := quartileSpread([]float64{7}); got != 0 {
		t.Fatalf("one value has spread %v, want 0", got)
	}
}
