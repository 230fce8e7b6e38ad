package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"time"

	"graph2par"
)

// The corpus workload scans code bases: one default-config AnalyzeFiles
// call per code base of codeBaseFiles translation units. The timed phase
// cycles over the corpusFiles distinct inputs for the run's length, and at
// least minCycles times, so every code base has a median call cost that a
// single disturbed call does not move. The first warmupBases code bases
// are analyzed once before the phase, untimed.
const (
	corpusFiles   = 1024
	codeBaseFiles = 8
	minCycles     = 3
	warmupBases   = 8
)

// rewriteTraceFiles is how many of the corpus draw's files the traced run
// also takes through the verify and rewrite stages (README.md says why
// rewrite is not a workload of its own). Rewrite cost is heavy-tailed:
// about one file in two hundred spends tens of CPU-seconds in one plan, and
// the traced run pays for such a file twice (serial pass and replay), so
// the share is kept small. No file is filtered out.
const rewriteTraceFiles = 32

// digest fingerprints a value's JSON encoding: a file's reports, byte for
// byte.
func digest(v any) (string, error) {
	data, err := json.Marshal(v)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), nil
}

// verdictRight reports whether the labeled loop's predicted verdict matches
// the ground truth; a report list too short to hold the label is wrong.
func verdictRight(in input, rs []graph2par.LoopReport) bool {
	return in.label < len(rs) && rs[in.label].Parallel == in.parallel
}

// codeBases cuts the draw into consecutive code bases of codeBaseFiles
// files, keyed by file name.
func codeBases(ins []input) []map[string]string {
	var bases []map[string]string
	for i, in := range ins {
		if i%codeBaseFiles == 0 {
			bases = append(bases, map[string]string{})
		}
		bases[len(bases)-1][in.name] = in.src
	}
	return bases
}

// reference is the reference configuration's result for every input: the
// digest of its reports by file name, and how many labeled loops it
// predicted right.
type reference struct {
	digest map[string]string
	right  int
}

func referencePass(e *graph2par.Engine, ins []input) (reference, error) {
	ref := refEngine(e)
	digests := make([]string, len(ins))
	right := make([]bool, len(ins))
	err := lanes(len(ins), func(i int) error {
		rs, err := ref.AnalyzeSource(ins[i].src)
		if err != nil {
			return fmt.Errorf("reference pass: %s: %w", ins[i].name, err)
		}
		right[i] = verdictRight(ins[i], rs)
		digests[i], err = digest(rs)
		return err
	})
	r := reference{digest: map[string]string{}}
	for i, in := range ins {
		r.digest[in.name] = digests[i]
		if right[i] {
			r.right++
		}
	}
	return r, err
}

// check counts the files of a code base whose reports are missing or differ
// from the reference, and the loops reported.
func (r reference) check(base map[string]string, out map[string][]graph2par.LoopReport) (failed, loops int) {
	for name := range base {
		rs, ok := out[name]
		got, err := digest(rs)
		if !ok || err != nil || got != r.digest[name] {
			logf("check failed: %s: reports differ from the reference pass", name)
			failed++
		}
		loops += len(rs)
	}
	return failed, loops
}

func runCorpus(ev *env) (outcome, error) {
	repeats := setupRepeats
	if ev.trace {
		repeats = 1
	}
	e, _, st, err := setupEngine(repeats, graph2par.EngineConfig{}, nil)
	if err != nil {
		return outcome{}, err
	}
	ins, err := drawInputs(ev.seed, corpusFiles)
	if err != nil {
		return outcome{}, err
	}
	inDigest := inputDigest(ins)
	if ev.trace {
		oc, err := traceCorpus(ev, e, ins, st.cpuS)
		oc.digest = inDigest
		return oc, err
	}

	bases := codeBases(ins)
	refStart := time.Now()
	ref, err := referencePass(e, ins)
	if err != nil {
		return outcome{}, err
	}
	logf("reference pass: %d code bases in %v", len(bases), time.Since(refStart))
	for _, b := range bases[:warmupBases] {
		if _, err := e.AnalyzeFiles(b); err != nil {
			return outcome{}, err
		}
	}

	if err := resetPeakRSS(); err != nil {
		return outcome{}, err
	}
	steal, err := startSteal()
	if err != nil {
		return outcome{}, err
	}
	cal := newCalibrator()
	var (
		cpuOf, wallOf            = make([][]float64, len(bases)), make([][]float64, len(bases))
		cpuSum, wallSum          time.Duration
		attempted, failed, loops int
		rss                      rssSampler
	)
	start := time.Now()
	for i := 0; i < minCycles*len(bases) || time.Since(start) < ev.seconds; i++ {
		b := i % len(bases)
		if err := rss.begin(); err != nil {
			return outcome{}, err
		}
		c0 := now()
		out, _ := e.AnalyzeFiles(bases[b]) // a parse failure shows as missing reports
		cpu, wall := c0.since()
		if err := rss.end(); err != nil {
			return outcome{}, err
		}
		cpuSum, wallSum = cpuSum+cpu, wallSum+wall
		cpuOf[b], wallOf[b] = append(cpuOf[b], ms(cpu)), append(wallOf[b], ms(wall))
		f, l := ref.check(bases[b], out)
		attempted += len(bases[b])
		failed += f
		loops += l
		cal.sample()
	}
	logf("timed phase: %d calls in %v", attempted/codeBaseFiles, time.Since(start))
	stealShare, err := steal.share()
	if err != nil {
		return outcome{}, err
	}

	cpuMed, wallMed := make([]float64, len(bases)), make([]float64, len(bases))
	for k := range bases {
		cpuMed[k], wallMed[k] = median(cpuOf[k]), median(wallOf[k])
	}
	p50, p90, err := p50p90(cpuMed)
	if err != nil {
		return outcome{}, err
	}
	wp50, wp90, err := p50p90(wallMed)
	if err != nil {
		return outcome{}, err
	}
	perLoop := func(d time.Duration) float64 { return ms(d) / float64(loops) }
	raw := timings{st.cpuS, perLoop(cpuSum), p50, p90}
	scale := cal.scale()
	return outcome{
		res:    endToEnd(raw.scaled(scale), median(rss.peaks), ref.right, len(ins), attempted, failed),
		digest: inDigest,
		steal:  stealShare,
		raw:    raw,
		wall:   timings{st.wallS, perLoop(wallSum), wp50, wp90},
		scale:  scale,
	}, nil
}
