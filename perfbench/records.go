package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// record is one run's full result as printed and written to the results
// directory: the result line plus the machine shape, the input digest, the
// run's steal share and, for an untraced run, its timings as measured
// (process CPU before scaling, and wall clock) with the scale factor.
type record struct {
	Machine     machine  `json:"machine"`
	Workload    string   `json:"workload"`
	Trace       bool     `json:"trace"`
	InputDigest string   `json:"input_digest"`
	StealRatio  float64  `json:"steal_ratio"`
	RawCPU      *timings `json:"raw_cpu,omitempty"`
	Wall        *timings `json:"wall,omitempty"`
	Scale       float64  `json:"scale,omitempty"`
	Result      result   `json:"result"`
}

// twins lists a record's timings as measured, keyed by the metric they
// are the twin of.
func (r record) twins() map[string]float64 {
	out := map[string]float64{}
	for prefix, t := range map[string]*timings{"raw_cpu:": r.RawCPU, "wall:": r.Wall} {
		if t != nil {
			out[prefix+"setup_s"], out[prefix+"cpu_ms_per_loop"] = t.SetupS, t.PerLoopMS
			out[prefix+"p50_cpu_ms"], out[prefix+"p90_cpu_ms"] = t.P50MS, t.P90MS
		}
	}
	if r.Scale != 0 {
		out["scale"] = r.Scale
	}
	return out
}

func readRecord(path string) (record, error) {
	var r record
	data, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(data, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

// comparable refuses two records that were recorded on different core
// counts or are of different runs.
func comparable(a, b record, aName, bName string) error {
	if a.Machine.NProc != b.Machine.NProc || a.Machine.GOMAXPROCS != b.Machine.GOMAXPROCS {
		return fmt.Errorf("refusing to compare: %s ran on nproc=%d GOMAXPROCS=%d, %s on nproc=%d GOMAXPROCS=%d",
			aName, a.Machine.NProc, a.Machine.GOMAXPROCS, bName, b.Machine.NProc, b.Machine.GOMAXPROCS)
	}
	if a.Workload != b.Workload || a.Trace != b.Trace {
		return fmt.Errorf("refusing to compare workload %q (trace %v) with %q (trace %v)", a.Workload, a.Trace, b.Workload, b.Trace)
	}
	return nil
}

// compareRecords prints each metric of b relative to a.
func compareRecords(w io.Writer, aPath, bPath string) error {
	a, err := readRecord(aPath)
	if err != nil {
		return err
	}
	b, err := readRecord(bPath)
	if err != nil {
		return err
	}
	if err := comparable(a, b, aPath, bPath); err != nil {
		return err
	}
	for _, name := range sortedKeys(a.Result.Metrics) {
		ma := a.Result.Metrics[name]
		mb, ok := b.Result.Metrics[name]
		if !ok {
			fmt.Fprintf(w, "%-34s %14.4f %14s\n", name, ma.Value, "missing")
			continue
		}
		fmt.Fprintf(w, "%-34s %14.4f %14.4f %+9.2f%%\n", name, ma.Value, mb.Value, 100*(mb.Value-ma.Value)/ma.Value)
	}
	return nil
}

// summarizeRecords prints, for records of one workload, each metric's and
// each wall-clock twin's median and the distance between its quartiles as
// a share of the median, then every run's steal share.
func summarizeRecords(w io.Writer, paths []string) error {
	if len(paths) < 2 {
		return fmt.Errorf("--summarize needs at least two record files")
	}
	var recs []record
	for _, p := range paths {
		r, err := readRecord(p)
		if err != nil {
			return err
		}
		if len(recs) > 0 {
			if err := comparable(recs[0], r, paths[0], p); err != nil {
				return err
			}
		}
		recs = append(recs, r)
	}
	series := map[string][]float64{}
	units := map[string]string{}
	failed := 0
	for _, r := range recs {
		failed += r.Result.Failed
		for name, m := range r.Result.Metrics {
			series[name] = append(series[name], m.Value)
			units[name] = m.Unit
		}
		for name, v := range r.twins() {
			series[name] = append(series[name], v)
		}
	}
	fmt.Fprintf(w, "%s, trace %v: %d runs, %d failed operations\n\n", recs[0].Workload, recs[0].Trace, len(recs), failed)
	fmt.Fprintln(w, "| metric | unit | median | Q1 | Q3 | spread |")
	fmt.Fprintln(w, "|---|---|---|---|---|---|")
	for _, name := range sortedKeys(series) {
		xs := series[name]
		if len(xs) != len(recs) {
			return fmt.Errorf("%s is missing from some records", name)
		}
		q1, q3 := quartiles(xs)
		m := median(xs)
		spread := 0.0
		if m != 0 {
			spread = (q3 - q1) / m
		}
		fmt.Fprintf(w, "| `%s` | %s | %.4g | %.4g | %.4g | %.3f |\n", name, units[name], m, q1, q3, spread)
	}
	steal := make([]string, len(recs))
	for i, r := range recs {
		steal[i] = fmt.Sprintf("%d: %.3f", r.Machine.Seed, r.StealRatio)
	}
	fmt.Fprintf(w, "\nsteal share per run (seed: share): %s\n", strings.Join(steal, ", "))
	return nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
