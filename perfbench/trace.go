package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"graph2par"
	"graph2par/internal/auggraph"
	"graph2par/internal/cparse"
	"graph2par/internal/frontend"
	"graph2par/internal/hgt"
	"graph2par/internal/rewrite"
	"graph2par/internal/tools"
	"graph2par/internal/tools/autopar"
	"graph2par/internal/tools/discopop"
	"graph2par/internal/tools/pluto"
	"graph2par/internal/train"
	"graph2par/internal/verify"
)

// span is one timed call into a layer: its wall time, the process CPU
// time and the heap bytes allocated while it ran. Start is nanoseconds
// since the tracer started; Parent is the index of the enclosing span (-1
// for a root); Trace identifies the input file (-1 for the batched
// inference measurement, which is outside the serial pass).
type span struct {
	Name   string `json:"name"`
	Parent int    `json:"parent"`
	Trace  int    `json:"trace"`
	Start  int64  `json:"start_ns"`
	Wall   int64  `json:"wall_ns"`
	CPU    int64  `json:"cpu_ns"`
	Alloc  uint64 `json:"alloc_bytes"`
}

// tracer keeps spans in memory; write dumps them, with the run's metrics,
// once at the end of the run. It is used from one goroutine.
type tracer struct {
	epoch time.Time
	spans []span
	open  []openSpan
	trace int
}

type openSpan struct {
	index int
	at    clock
	alloc uint64
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) begin(name string) {
	parent := -1
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1].index
	}
	t.open = append(t.open, openSpan{index: len(t.spans)})
	t.spans = append(t.spans, span{Name: name, Parent: parent, Trace: t.trace})
	o := &t.open[len(t.open)-1]
	o.alloc = allocBytes()
	o.at = now()
	t.spans[o.index].Start = int64(o.at.wall.Sub(t.epoch))
}

// end closes the innermost open span and returns it.
func (t *tracer) end() span {
	cpu, wall := t.open[len(t.open)-1].at.since()
	o := t.open[len(t.open)-1]
	t.open = t.open[:len(t.open)-1]
	s := &t.spans[o.index]
	s.CPU, s.Wall, s.Alloc = int64(cpu), int64(wall), allocBytes()-o.alloc
	return *s
}

// selfCPU sums each span name's self CPU time: its CPU time minus that of
// its child spans. Children never overlap (one goroutine) and process CPU
// only grows, so no self time is negative.
func (t *tracer) selfCPU() map[string]time.Duration {
	self := map[string]time.Duration{}
	for _, s := range t.spans {
		self[s.Name] += time.Duration(s.CPU)
		if s.Parent >= 0 {
			self[t.spans[s.Parent].Name] -= time.Duration(s.CPU)
		}
	}
	return self
}

func (t *tracer) write(path string, metrics map[string]metric) error {
	data, err := json.Marshal(struct {
		Spans   []span            `json:"spans"`
		Metrics map[string]metric `json:"metrics"`
	}{t.spans, metrics})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// layerSpans are the spans whose self times partition the serial pass's
// work into layers; the file and loop spans are the replay's own glue, and
// hgt.batch is measured outside the serial pass.
var layerSpans = []string{
	"cparse", "auggraph.build", "auggraph.dot", "hgt.predict",
	"tools.autopar", "tools.pluto", "tools.discopop",
	"verify", "rewrite.plan", "rewrite.apply",
}

// perLayer is every per-layer metric with its unit. Every traced run
// reports all of them; a layer a workload does not exercise reads 0.
var perLayer = []struct{ name, unit string }{
	{"train.cpu_s", "s"},
	{"cparse.cpu_ms", "ms"},
	{"auggraph.build_cpu_ms", "ms"},
	{"auggraph.dot_cpu_ms", "ms"},
	{"auggraph.nodes_per_loop", "count"},
	{"auggraph.edges_per_loop", "count"},
	{"hgt.predict_cpu_ms", "ms"},
	{"hgt.predict_alloc_mb", "MB"},
	{"hgt.batch_cpu_ms", "ms"},
	{"hgt.batch_alloc_mb", "MB"},
	{"tools.autopar.cpu_ms", "ms"},
	{"tools.pluto.cpu_ms", "ms"},
	{"tools.discopop.cpu_ms", "ms"},
	{"tools.discopop.alloc_mb", "MB"},
	{"tools.discopop.processable_ratio", "ratio"},
	{"verify.cpu_ms", "ms"},
	{"verify.safe", "count"},
	{"verify.unknown", "count"},
	{"verify.unsafe", "count"},
	{"rewrite.plan_cpu_ms", "ms"},
	{"rewrite.plan_max_cpu_ms", "ms"},
	{"rewrite.slow_plans", "count"},
	{"rewrite.accepted", "count"},
	{"rewrite.yield", "ratio"},
	{"cache.hits", "count"},
	{"cache.misses", "count"},
	{"cache.hit_ratio", "ratio"},
	{"cache.get_us", "us"},
	{"serve.overhead_cpu_ms", "ms"},
	{"serve.non200", "count"},
	{"serve.wall_p50_ms", "ms"},
	{"serve.wall_p90_ms", "ms"},
	{"serve.capacity_rps", "1/s"},
	{"parallel.core_util", "ratio"},
	{"wall.loops_per_s", "1/s"},
	{"engine.serial_cpu_ms", "ms"},
	{"engine.unattributed_cpu_ms", "ms"},
	{"trace.overhead_ratio", "ratio"},
	{"runtime.alloc_mb_per_loop", "MB"},
	{"runtime.gc_cycles_per_1k_loops", "count"},
	{"host.steal_ratio", "ratio"},
	{"host.calib_ms", "ms"},
}

// slowPlan is the CPU time beyond which a rewrite plan counts as slow.
const slowPlan = time.Second

// batchSize is the engine's default inference batch bound.
const batchSize = graph2par.DefaultBatchSize

// replay is the traced run's core, shared by every workload: a serial,
// untraced engine pass over the inputs (one worker, one graph per forward
// pass, cache off) and a one-goroutine replay of the same work through each
// layer's public functions, with a span around every call. Each file's
// serial call is followed at once by its replay, so a slow spell of the
// shared machine hits both alike.
type replay struct {
	tr     *tracer
	model  *hgt.Model
	vocab  *auggraph.Vocab
	gopts  auggraph.Options
	plain  *graph2par.Engine // verify and rewrite off
	full   *graph2par.Engine // verify and rewrite on, for the staged files
	tools  []namedTool
	scr    *frontend.Scratch
	cal    *calibrator
	serial time.Duration // CPU of the serial pass
	replay time.Duration // CPU of the replay, spans included

	loops, nodes, edges, mismatches int
	processable                     int // loops DiscoPoP could process
	level                           map[verify.Level]int
	plans, slowPlans, accepted      int
	planMax                         time.Duration
	parallelFiles, yielded          int
	// reports holds the serial pass's reports of every unstaged file, by
	// input name, as the other passes' outputs are checked against them.
	reports map[string][]graph2par.LoopReport
}

type namedTool struct {
	name string
	tool tools.Tool
}

func newReplay(ev *env, e *graph2par.Engine) (*replay, error) {
	// The replay needs the model itself; a checkpoint round trip is the
	// public way to get it and is bit-exact.
	ckpt := filepath.Join(ev.out, "model.ckpt")
	if err := e.Save(ckpt); err != nil {
		return nil, err
	}
	model, vocab, gopts, err := train.LoadCheckpoint(ckpt)
	if err != nil {
		return nil, err
	}
	r := &replay{
		tr:    newTracer(),
		model: model, vocab: vocab, gopts: gopts,
		plain: refEngine(e), full: refEngine(e),
		tools:   []namedTool{{"autopar", autopar.New()}, {"pluto", pluto.New()}, {"discopop", discopop.New()}},
		scr:     frontend.NewScratch(),
		cal:     newCalibrator(),
		level:   map[verify.Level]int{},
		reports: map[string][]graph2par.LoopReport{},
	}
	r.plain.SetVerify(false)
	r.plain.SetRewrite(false)
	r.full.SetVerify(true)
	r.full.SetRewrite(true)
	return r, nil
}

// encoded is one loop's encoding from the replay with its single-graph
// prediction, for the batched-inference measurement.
type encoded struct {
	enc   *auggraph.Encoded
	pred  int
	probs []float64
}

// group replays a group of files that the engine would analyze in one call
// (a code base, or one request's file), then measures batched inference
// over the group's encodings. The first staged files of the group also go
// through verify and rewrite. trace0 is the first file's trace id. Like
// the engine's pooled scratch, one scratch serves every group, reset in
// between. A calibration sample follows each group.
func (r *replay) group(ins []input, trace0, staged int) error {
	var encs []encoded
	for i, in := range ins {
		var err error
		if encs, err = r.file(in, trace0+i, i < staged, encs); err != nil {
			return err
		}
	}
	r.batch(encs)
	r.scr.Reset()
	r.cal.sample()
	return nil
}

func (r *replay) file(in input, trace int, staged bool, encs []encoded) ([]encoded, error) {
	var want []graph2par.LoopReport
	c0 := cpuTime()
	var err error
	if staged {
		var res *graph2par.RewriteResult
		if res, err = r.full.RewriteSource(in.src); err == nil {
			want = res.Reports
		}
	} else {
		want, err = r.plain.AnalyzeSource(in.src)
		r.reports[in.name] = want
	}
	r.serial += cpuTime() - c0
	if err != nil {
		return nil, fmt.Errorf("serial pass: %s: %w", in.name, err)
	}

	c0 = cpuTime()
	defer func() { r.replay += cpuTime() - c0 }()
	tr := r.tr
	tr.trace = trace
	tr.begin("file")
	defer tr.end()
	tr.begin("cparse")
	file, err := r.scr.Parse.ParseFile(in.src)
	tr.end()
	if err != nil {
		return nil, fmt.Errorf("replay: %s: %w", in.name, err)
	}
	funcs := definedFuncs(file)
	loops := fileLoops(file)
	if len(loops) != len(want) {
		r.mismatches++
	}
	var plans []*rewrite.LoopPlan
	for j, loop := range loops {
		tr.begin("loop")
		r.loops++
		tr.begin("auggraph.build")
		opts := r.gopts
		opts.Funcs = funcs
		g := r.scr.Graph.Build(loop, opts)
		enc := r.scr.Graph.Encode(r.vocab, g)
		tr.end()
		r.nodes += len(g.Nodes)
		r.edges += len(g.Edges)
		tr.begin("auggraph.dot")
		_ = g.DOT(fmt.Sprintf("loop at line %d", loop.Pos().Line))
		tr.end()
		tr.begin("hgt.predict")
		pred, probs := r.model.Predict(enc)
		tr.end()
		encs = append(encs, encoded{enc, pred, probs})
		if j >= len(want) || want[j].Parallel != (pred == 1) || want[j].Confidence != probs[pred] {
			r.mismatches++
		}
		// The engine verifies the suggestion it built, then plans the
		// rewrite, for every loop it predicts parallel.
		if staged && pred == 1 && j < len(want) {
			tr.begin("verify")
			v := verify.Verify(verify.Request{Loop: loop, File: file, Pragma: want[j].Suggestion})
			tr.end()
			r.level[v.Level]++
			tr.begin("rewrite.plan")
			p := rewrite.PlanLoop(loop, file)
			d := time.Duration(tr.end().CPU)
			r.plans++
			r.planMax = max(r.planMax, d)
			if d > slowPlan {
				r.slowPlans++
				logf("slow rewrite plan: %s line %d took %v CPU", in.name, loop.Pos().Line, d)
			}
			plans = append(plans, p)
		}
		for _, t := range r.tools {
			tr.begin("tools." + t.name)
			// The engine marks every loop of a parsed file compilable and
			// runnable and lets each tool decide.
			v := t.tool.Analyze(tools.Sample{Loop: loop, File: file, Compilable: true, Runnable: true})
			tr.end()
			if t.name == "discopop" && v.Processable {
				r.processable++
			}
		}
		tr.end()
	}
	if staged {
		tr.begin("rewrite.apply")
		_, _, err := rewrite.Apply(in.src, plans)
		tr.end()
		if err != nil {
			return nil, fmt.Errorf("replay: %s: %w", in.name, err)
		}
		for _, p := range plans {
			if p.Status != rewrite.StatusSuggestion {
				r.accepted++
			}
		}
		if in.parallel {
			r.parallelFiles++
			if in.label < len(want) && want[in.label].Rewrite != nil && want[in.label].Rewrite.Status != rewrite.StatusSuggestion {
				r.yielded++
			}
		}
	}
	return encs, nil
}

// batch scores a group's encodings the way the engine's batched path does:
// sorted by node count, stable, in forward passes of at most batchSize
// graphs. Every prediction must equal the single-graph one.
func (r *replay) batch(encs []encoded) {
	sort.SliceStable(encs, func(a, b int) bool { return len(encs[a].enc.KindIDs) < len(encs[b].enc.KindIDs) })
	r.tr.trace = -1
	for lo := 0; lo < len(encs); lo += batchSize {
		chunk := encs[lo:min(lo+batchSize, len(encs))]
		in := make([]*auggraph.Encoded, len(chunk))
		for k, x := range chunk {
			in[k] = x.enc
		}
		r.tr.begin("hgt.batch")
		preds, probs := r.model.PredictBatch(in)
		r.tr.end()
		for k, x := range chunk {
			if preds[k] != x.pred || probs[k][x.pred] != x.probs[x.pred] {
				r.mismatches++
			}
		}
	}
}

// metrics turns the replay's spans and counts into per-layer metrics. Every
// name of perLayer is present; the caller fills what the workload measured
// beyond the replay.
func (r *replay) metrics(trainCPU float64) map[string]metric {
	m := map[string]metric{}
	for _, pl := range perLayer {
		m[pl.name] = metric{0, pl.unit}
	}
	set := func(name string, v float64) { m[name] = metric{v, m[name].Unit} }
	self := r.tr.selfCPU()
	var attributed time.Duration
	for _, name := range layerSpans {
		attributed += self[name]
	}
	var hgtAlloc, dpAlloc, batchAlloc uint64
	var batchCPU time.Duration
	for _, s := range r.tr.spans {
		switch s.Name {
		case "hgt.predict":
			hgtAlloc += s.Alloc
		case "tools.discopop":
			dpAlloc += s.Alloc
		case "hgt.batch":
			batchAlloc += s.Alloc
			batchCPU += time.Duration(s.CPU)
		}
	}
	ratio := func(a, b int) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	mb := func(b uint64) float64 { return float64(b) / 1e6 }
	set("train.cpu_s", trainCPU)
	set("cparse.cpu_ms", ms(self["cparse"]))
	set("auggraph.build_cpu_ms", ms(self["auggraph.build"]))
	set("auggraph.dot_cpu_ms", ms(self["auggraph.dot"]))
	set("auggraph.nodes_per_loop", ratio(r.nodes, r.loops))
	set("auggraph.edges_per_loop", ratio(r.edges, r.loops))
	set("hgt.predict_cpu_ms", ms(self["hgt.predict"]))
	set("hgt.predict_alloc_mb", mb(hgtAlloc))
	set("hgt.batch_cpu_ms", ms(batchCPU))
	set("hgt.batch_alloc_mb", mb(batchAlloc))
	for _, t := range r.tools {
		set("tools."+t.name+".cpu_ms", ms(self["tools."+t.name]))
	}
	set("tools.discopop.alloc_mb", mb(dpAlloc))
	set("tools.discopop.processable_ratio", ratio(r.processable, r.loops))
	set("verify.cpu_ms", ms(self["verify"]))
	set("verify.safe", float64(r.level[verify.Safe]))
	set("verify.unknown", float64(r.level[verify.Unknown]))
	set("verify.unsafe", float64(r.level[verify.Unsafe]))
	set("rewrite.plan_cpu_ms", ms(self["rewrite.plan"]))
	set("rewrite.plan_max_cpu_ms", ms(r.planMax))
	set("rewrite.slow_plans", float64(r.slowPlans))
	set("rewrite.accepted", float64(r.accepted))
	set("rewrite.yield", ratio(r.yielded, r.parallelFiles))
	set("engine.serial_cpu_ms", ms(r.serial))
	set("engine.unattributed_cpu_ms", ms(r.serial-attributed))
	set("trace.overhead_ratio", r.replay.Seconds()/r.serial.Seconds())
	set("host.calib_ms", median(r.cal.samples))
	return m
}

// traceResult writes the spans and assembles a traced run's result; the
// attempted operations are the replayed loops.
func (r *replay) traceResult(ev *env, m map[string]metric) (result, error) {
	path := filepath.Join(ev.out, "spans", fmt.Sprintf("%s-seed%d.json", ev.workload, ev.seed))
	if err := r.tr.write(path, m); err != nil {
		return result{}, err
	}
	return result{Correct: r.mismatches == 0, Attempted: r.loops, Failed: r.mismatches, Metrics: m}, nil
}

// passCounters measures one untraced default-config pass: loops per wall
// second, core use, and the Go runtime's allocation and collections per
// loop.
func passCounters(m map[string]metric, loops int, cpu, wall time.Duration, alloc, gcs uint64) {
	set := func(name string, v float64) { m[name] = metric{v, m[name].Unit} }
	set("parallel.core_util", cpu.Seconds()/(wall.Seconds()*float64(runtime.GOMAXPROCS(0))))
	set("wall.loops_per_s", float64(loops)/wall.Seconds())
	set("runtime.alloc_mb_per_loop", float64(alloc)/1e6/float64(loops))
	set("runtime.gc_cycles_per_1k_loops", 1000*float64(gcs)/float64(loops))
}

// traceCorpus is the corpus workload's traced run: the serial pass and
// replay over every code base (the first rewriteTraceFiles files also
// through verify and rewrite), then one untraced default-config pass over
// the draw whose outputs must match the serial pass.
func traceCorpus(ev *env, e *graph2par.Engine, ins []input, trainCPU float64) (outcome, error) {
	r, err := newReplay(ev, e)
	if err != nil {
		return outcome{}, err
	}
	for lo := 0; lo < len(ins); lo += codeBaseFiles {
		if err := r.group(ins[lo:min(lo+codeBaseFiles, len(ins))], lo, max(0, rewriteTraceFiles-lo)); err != nil {
			return outcome{}, err
		}
	}
	m := r.metrics(trainCPU)

	// The staged files' serial reports carry verdicts and plans; the
	// default pass is checked against plain reports.
	ref := reference{digest: map[string]string{}}
	for _, in := range ins {
		rs, ok := r.reports[in.name]
		if !ok {
			if rs, err = r.plain.AnalyzeSource(in.src); err != nil {
				return outcome{}, err
			}
		}
		if ref.digest[in.name], err = digest(rs); err != nil {
			return outcome{}, err
		}
	}
	steal, err := startSteal()
	if err != nil {
		return outcome{}, err
	}
	var cpu, wall time.Duration
	failed, loops := 0, 0
	a0, g0 := runtimeCounters()
	for _, b := range codeBases(ins) {
		c0 := now()
		out, _ := e.AnalyzeFiles(b)
		c, w := c0.since()
		cpu, wall = cpu+c, wall+w
		f, l := ref.check(b, out)
		failed, loops = failed+f, loops+l
	}
	a1, g1 := runtimeCounters()
	passCounters(m, loops, cpu, wall, a1-a0, g1-g0)
	stealShare, err := steal.share()
	if err != nil {
		return outcome{}, err
	}
	m["host.steal_ratio"] = metric{stealShare, "ratio"}
	res, err := r.traceResult(ev, m)
	res.Attempted += len(ins)
	res.Failed += failed
	res.Correct = res.Failed == 0
	return outcome{res: res, steal: stealShare}, err
}

// traceServe is the serve workload's traced run. The traffic pass t was
// untraced; from it come the cache, serve and runtime counters. Then a
// serial probe on a warm cache measures what HTTP adds to a direct engine
// call and what a cached answer costs per loop, and the replay covers the
// first files sent, one file per group as one request is.
func traceServe(ev *env, e *graph2par.Engine, c *client, ins []input, t traffic, phaseLoops int, capacity []exchange, non200 int, trainCPU float64) (outcome, error) {
	var overhead, getUS []float64
	ps := cparse.NewSession()
	for i := 0; i < len(ins) && i < overheadFiles; i++ {
		if _, err := e.AnalyzeSource(ins[i].src); err != nil { // cache every loop
			return outcome{}, err
		}
		c0 := cpuTime()
		rs, err := e.AnalyzeSource(ins[i].src)
		direct := cpuTime() - c0
		if err != nil {
			return outcome{}, err
		}
		x := c.exchange(i)
		if x.err != nil || x.status != http.StatusOK {
			return outcome{}, fmt.Errorf("overhead probe: status %d: %v", x.status, x.err)
		}
		c0 = cpuTime()
		_, err = ps.ParseFile(ins[i].src)
		parse := cpuTime() - c0
		ps.Reset()
		if err != nil {
			return outcome{}, err
		}
		overhead = append(overhead, ms(x.cpu-direct))
		if len(rs) > 0 {
			getUS = append(getUS, float64(direct-parse)/float64(time.Microsecond)/float64(len(rs)))
		}
	}

	r, err := newReplay(ev, e)
	if err != nil {
		return outcome{}, err
	}
	for i := range ins {
		if err := r.group(ins[i:i+1], i, 0); err != nil {
			return outcome{}, err
		}
	}
	m := r.metrics(trainCPU)
	set := func(name string, v float64) { m[name] = metric{v, m[name].Unit} }

	hits, misses := float64(t.cacheAft.Hits-t.cacheBefore.Hits), float64(t.cacheAft.Misses-t.cacheBefore.Misses)
	set("cache.hits", hits)
	set("cache.misses", misses)
	if hits+misses > 0 {
		set("cache.hit_ratio", hits/(hits+misses))
	}
	set("cache.get_us", median(getUS))
	set("serve.overhead_cpu_ms", median(overhead))
	set("serve.non200", float64(non200))
	walls := make([]float64, len(t.phase))
	for i, x := range t.phase {
		walls[i] = ms(x.wall)
	}
	p50, p90, err := p50p90(walls)
	if err != nil {
		return outcome{}, err
	}
	set("serve.wall_p50_ms", p50)
	set("serve.wall_p90_ms", p90)
	set("serve.capacity_rps", float64(len(capacity))/capacityTime.Seconds())
	passCounters(m, phaseLoops, t.phaseCPU, t.phaseWall, t.allocBytes, t.gcCycles)
	set("host.steal_ratio", t.steal)
	res, err := r.traceResult(ev, m)
	return outcome{res: res, steal: t.steal}, err
}
