// Command perfbench is the repository's benchmark. One invocation sets up a
// fixed-seed engine, generates one workload's inputs from --seed, runs the
// workload, checks every output, and prints one JSON result line:
//
//	perfbench --workload corpus|serve --seed N --seconds S --trace 0|1
//
// Every gated timing is process CPU time (user + system, from getrusage),
// not wall-clock time: on a shared virtual machine the hypervisor's steal
// moves wall-clock figures far more than CPU ones. The timed phase's CPU
// times are further scaled to a reference machine speed by a calibration
// kernel run between the timed calls (calib.go), because the host's speed
// drifts by a tenth or more over minutes without any steal. Each timing as
// measured, its wall-clock twin and the run's steal share are recorded next
// to the result.
//
// With --trace 0 the result carries the end-to-end metrics, measured with
// no tracing. With --trace 1 a separate run replays the same inputs layer
// by layer on one goroutine, records spans in memory, writes them out at
// the end, and reports the per-layer metrics. README.md in this directory
// defines every metric and says why each workload exists.
//
// Every record (result, machine shape, input digest, steal share and the
// timings as measured) is printed on the line before the result and written to
// <out>/results. --compare a.json,b.json prints b's metrics relative to
// a's and refuses results recorded on different core counts; --summarize
// prints the median and quartile spread of each metric over records.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"graph2par"
	"graph2par/internal/parallel"
)

// The set-up model. Its seed is fixed and never equals an input seed (see
// inputSeed); scale and epochs keep one training near 4 CPU-s. Untraced
// runs set up setupRepeats times and report the median: the first
// training of a process runs on a cold heap and often costs more than the
// rest.
const (
	trainSeed    = 4242
	trainScale   = 0.005
	trainEpochs  = 3
	setupRepeats = 3
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the benchmark prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// env is what a workload run gets.
type env struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	out      string
}

// outcome is what a workload run returns: the result plus what the record
// keeps beside it.
type outcome struct {
	res    result
	digest string
	// steal is the share of the machine's CPU time stolen by the
	// hypervisor during the timed phase.
	steal float64
	// raw and wall are the gated timings as measured, before the timed
	// phase's are scaled to the reference speed by scale (see
	// calibrator.scale), and their wall-clock twins (untraced runs).
	raw, wall timings
	scale     float64
}

// timings are one run's gated timings, in one clock.
type timings struct {
	SetupS    float64 `json:"setup_s"`
	PerLoopMS float64 `json:"cpu_ms_per_loop"`
	P50MS     float64 `json:"p50_cpu_ms"`
	P90MS     float64 `json:"p90_cpu_ms"`
}

// scaled turns the timed phase's process CPU timings into CPU time at the
// reference speed. Set-up is one long call that no calibration sample can
// bracket closely, so it stays as measured.
func (t timings) scaled(scale float64) timings {
	return timings{t.SetupS, t.PerLoopMS * scale, t.P50MS * scale, t.P90MS * scale}
}

var workloads = map[string]func(*env) (outcome, error){
	"corpus": runCorpus,
	"serve":  runServe,
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: corpus or serve")
	seed := fs.Uint64("seed", 1, "workload input seed")
	seconds := fs.Int("seconds", 10, "length of the timed phase in seconds")
	trace := fs.Int("trace", 0, "0 for the end-to-end run, 1 for the traced per-layer run")
	out := fs.String("out", ".bench_build", "directory for results, spans and the model checkpoint")
	compare := fs.String("compare", "", "a.json,b.json: print b's metrics relative to a's and exit")
	summarize := fs.Bool("summarize", false, "print the median and quartile spread of each metric over the record files named as arguments, and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *compare != "" {
		a, b, ok := strings.Cut(*compare, ",")
		if !ok {
			return errors.New("--compare takes two result files separated by a comma")
		}
		return compareRecords(stdout, a, b)
	}
	if *summarize {
		return summarizeRecords(stdout, fs.Args())
	}
	w, ok := workloads[*name]
	if !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return errors.New("--seconds must be at least 1 and --trace 0 or 1")
	}
	e := &env{workload: *name, seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1, out: *out}
	if err := os.MkdirAll(filepath.Join(e.out, "results"), 0o755); err != nil {
		return err
	}
	oc, err := w(e)
	if err != nil {
		return fmt.Errorf("%s: %w", *name, err)
	}
	rec := record{
		Machine:     currentMachine(*seed),
		Workload:    *name,
		Trace:       e.trace,
		InputDigest: oc.digest,
		StealRatio:  oc.steal,
		Result:      oc.res,
	}
	if !e.trace {
		rec.RawCPU, rec.Wall, rec.Scale = &oc.raw, &oc.wall, oc.scale
	}
	data, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	path := filepath.Join(e.out, "results", fmt.Sprintf("%s-seed%d-trace%d.json", *name, *seed, *trace))
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	line, err := json.Marshal(oc.res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n%s\n", data, line)
	return err
}

// setup is what setting up cost: the median CPU and wall seconds of one
// set-up.
type setup struct{ cpuS, wallS float64 }

// setupEngine trains the fixed-seed engine n times and returns the last
// one. Every training is bit-identical, so which engine is kept does not
// matter. start, when non-nil, runs after each training and is part of
// set-up (the serve workload starts its server there); each start's
// cleanup runs except the last, which the caller owns.
func setupEngine(n int, cfg graph2par.EngineConfig, start func(*graph2par.Engine) (func(), error)) (e *graph2par.Engine, cleanup func(), st setup, err error) {
	cfg.TrainScale, cfg.Epochs, cfg.Seed, cfg.Quiet = trainScale, trainEpochs, trainSeed, true
	var cpus, walls []float64
	cleanup = func() {}
	for i := 0; i < n; i++ {
		cleanup()
		cleanup = func() {}
		c0 := now()
		if e, err = graph2par.NewEngine(cfg); err != nil {
			return nil, nil, st, err
		}
		if start != nil {
			if cleanup, err = start(e); err != nil {
				return nil, nil, st, err
			}
		}
		cpu, wall := c0.since()
		cpus, walls = append(cpus, cpu.Seconds()), append(walls, wall.Seconds())
	}
	st = setup{cpuS: median(cpus), wallS: median(walls)}
	logf("set-up: CPU %.2f s, wall %.2f s", cpus, walls)
	return e, cleanup, st, nil
}

// logf reports progress on standard error; standard output carries only
// the record and the result.
func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

// refEngine is the reference configuration every timed-path output is
// compared with: one worker, one graph per forward pass, no cache.
func refEngine(e *graph2par.Engine) *graph2par.Engine {
	ref := *e
	ref.SetWorkers(1)
	ref.SetBatchSize(1)
	ref.SetCacheSize(0)
	return &ref
}

// lanes runs fn for every index in [0, n) over nproc goroutines and
// returns the lowest-indexed error. Reference passes use it: each call is
// still one engine call in the reference configuration.
func lanes(n int, fn func(i int) error) error {
	errs := make([]error, n)
	parallel.ForEach(runtime.NumCPU(), n, func(i int) { errs[i] = fn(i) })
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// endToEnd assembles the end-to-end result every workload reports, from
// timings at the reference speed.
func endToEnd(t timings, peakMB float64, right, labeled, attempted, failed int) result {
	return result{
		Correct:   failed == 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics: map[string]metric{
			"setup_s":         {t.SetupS, "s"},
			"cpu_ms_per_loop": {t.PerLoopMS, "ms"},
			"p50_cpu_ms":      {t.P50MS, "ms"},
			"p90_cpu_ms":      {t.P90MS, "ms"},
			"peak_rss_mb":     {peakMB, "MB"},
			"accuracy":        {float64(right) / float64(labeled), "ratio"},
			"ok_ratio":        {1 - float64(failed)/float64(attempted), "ratio"},
		},
	}
}
