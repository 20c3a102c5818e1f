package main

// -check: the comparator. It reads two result files (arrays of run records
// written with -json), takes each side's median per (workload, metric), and
// applies the bound BENCHMARK.json fixes for the metric.

import (
	"encoding/json"
	"fmt"
	"os"
	"slices"
)

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"` // "lower" or "higher"
	Bound  float64 `json:"bound"`  // end-to-end only: share of the baseline median it may worsen by
}

type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

// loadSpec reads BENCHMARK.json; with no path given it looks in the working
// directory and its parent (the benchmark directory sits below the root).
func loadSpec(path string) (*benchSpec, error) {
	candidates := []string{path}
	if path == "" {
		candidates = []string{"BENCHMARK.json", "../BENCHMARK.json"}
	}
	var data []byte
	var err error
	for _, c := range candidates {
		if data, err = os.ReadFile(c); err == nil {
			break
		}
	}
	if err != nil {
		return nil, err
	}
	spec := &benchSpec{}
	if err := json.Unmarshal(data, spec); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return spec, nil
}

const (
	verdictOK         = "ok"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved" // a side's run-to-run spread is wider than the bound
	verdictInfo       = "-"          // per-layer metric: no bound, never gates
)

type checkRow struct {
	Workload, Metric, Unit string
	A, B                   float64 // medians
	SpreadA, SpreadB       float64 // interquartile range / median
	Worse                  float64 // signed share of A by which B is worse (negative: better)
	Bound                  float64
	Verdict                string
}

// quartileSpread is (Q3 - Q1) / median with the quartiles Python's
// statistics.quantiles(values, n=4) gives (its default, exclusive method);
// the driver that accepts benchmark changes uses the same definition. Fewer
// than two values have no spread.
func quartileSpread(values []float64) float64 {
	v := slices.Clone(values)
	slices.Sort(v)
	n := len(v)
	if n < 2 {
		return 0
	}
	q := func(i int) float64 {
		j := i * (n + 1) / 4
		j = min(max(j, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (v[j-1]*(4-delta) + v[j]*delta) / 4
	}
	med := median(v)
	if med == 0 {
		return 0
	}
	return (q(3) - q(1)) / med
}

// compare produces one row per (workload, metric) present on both sides, in
// BENCHMARK.json's order, plus a "failed" row per workload.
func compare(spec *benchSpec, a, b []*record) []checkRow {
	collect := func(recs []*record) (map[[2]string][]float64, map[string]int64) {
		vals, failed := map[[2]string][]float64{}, map[string]int64{}
		for _, r := range recs {
			failed[r.Workload] += r.Failed
			for name, m := range r.Metrics {
				k := [2]string{r.Workload, name}
				vals[k] = append(vals[k], m.Value)
			}
		}
		return vals, failed
	}
	va, fa := collect(a)
	vb, fb := collect(b)
	var rows []checkRow
	for _, w := range spec.Workloads {
		specs := append(slices.Clone(spec.EndToEnd), spec.PerLayer...)
		for i, m := range specs {
			k := [2]string{w.Name, m.Name}
			if len(va[k]) == 0 || len(vb[k]) == 0 {
				continue
			}
			row := checkRow{Workload: w.Name, Metric: m.Name, Unit: m.Unit, A: median(va[k]), B: median(vb[k]),
				SpreadA: quartileSpread(va[k]), SpreadB: quartileSpread(vb[k]), Bound: m.Bound, Verdict: verdictInfo}
			if row.A != 0 {
				row.Worse = (row.B - row.A) / row.A
				if m.Better == "higher" {
					row.Worse = -row.Worse
				}
			}
			if i < len(spec.EndToEnd) {
				switch {
				case max(row.SpreadA, row.SpreadB) > m.Bound:
					row.Verdict = verdictUnresolved
				case row.Worse > m.Bound:
					row.Verdict = verdictWorse
				default:
					row.Verdict = verdictOK
				}
			}
			rows = append(rows, row)
		}
		if _, ran := fb[w.Name]; ran {
			row := checkRow{Workload: w.Name, Metric: "failed", Unit: "count", A: float64(fa[w.Name]), B: float64(fb[w.Name]), Verdict: verdictOK}
			if fb[w.Name] > 0 { // any failed op is a regression: the bound is 0, absolute
				row.Verdict = verdictWorse
			}
			rows = append(rows, row)
		}
	}
	return rows
}

func readRecords(path string) ([]*record, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var recs []*record
	if err := json.Unmarshal(data, &recs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return recs, nil
}

// runCheck prints the comparison and returns exit code 1 when any row is
// worse.
func runCheck(specPath, aPath, bPath string) (int, error) {
	spec, err := loadSpec(specPath)
	if err != nil {
		return 2, err
	}
	a, err := readRecords(aPath)
	if err != nil {
		return 2, err
	}
	b, err := readRecords(bPath)
	if err != nil {
		return 2, err
	}
	rows := compare(spec, a, b)
	fmt.Printf("%-20s %-34s %14s %14s %8s %8s %8s %7s  %s\n", "workload", "metric", "A median", "B median", "worse", "spreadA", "spreadB", "bound", "verdict")
	code := 0
	for _, r := range rows {
		bound := "-"
		if r.Verdict != verdictInfo && r.Metric != "failed" {
			bound = fmt.Sprintf("%.1f%%", 100*r.Bound)
		}
		fmt.Printf("%-20s %-34s %14.6g %14.6g %+7.1f%% %7.1f%% %7.1f%% %7s  %s\n", r.Workload, r.Metric, r.A, r.B,
			100*r.Worse, 100*r.SpreadA, 100*r.SpreadB, bound, r.Verdict)
		if r.Verdict == verdictWorse {
			code = 1
		}
	}
	return code, nil
}
