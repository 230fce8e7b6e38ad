package main

import (
	"encoding/json"
	"math"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"graph2par"
)

var (
	testEngineOnce sync.Once
	testEngine     *graph2par.Engine
	testEngineErr  error
)

// engineForTest trains the set-up model once per test binary.
func engineForTest(t *testing.T) *graph2par.Engine {
	t.Helper()
	testEngineOnce.Do(func() {
		testEngine, _, _, testEngineErr = setupEngine(1, graph2par.EngineConfig{}, nil)
	})
	if testEngineErr != nil {
		t.Fatal(testEngineErr)
	}
	return testEngine
}

func TestCPUTimeCountsBusyNotSleep(t *testing.T) {
	c0 := cpuTime()
	x := 0
	for start := time.Now(); time.Since(start) < 100*time.Millisecond; {
		x++
	}
	if busy := cpuTime() - c0; busy < 50*time.Millisecond {
		t.Errorf("100 ms of busy loop (%d turns) read as %v of CPU", x, busy)
	}
	c0 = cpuTime()
	time.Sleep(200 * time.Millisecond)
	if slept := cpuTime() - c0; slept >= 20*time.Millisecond {
		t.Errorf("a 200 ms sleep was charged %v of CPU", slept)
	}
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	xs := make([]float64, 99)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if _, err := percentile(xs, 90); err == nil {
		t.Error("p90 of 99 samples has only 9 beyond it and must be refused")
	}
	xs = append(xs, 100)
	if v, err := percentile(xs, 90); err != nil || v != 90 {
		t.Errorf("p90 of 1..100 = %v, %v; want 90", v, err)
	}
	if _, err := percentile(xs[:19], 50); err == nil {
		t.Error("p50 of 19 samples has only 9 beyond it and must be refused")
	}
	if v, err := percentile(xs[:20], 50); err != nil || v != 10 {
		t.Errorf("p50 of 1..20 = %v, %v; want 10", v, err)
	}
}

// TestQuartilesLikePython pins quartiles to the values Python's
// statistics.quantiles(xs, n=4) gives.
func TestQuartilesLikePython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 1, 7, 3, 5}, 2, 8.5},
		{[]float64{4, 2}, 1.5, 4.5},
	} {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestInputsRepeatPerSeed(t *testing.T) {
	a, err := drawInputs(5, 40)
	if err != nil {
		t.Fatal(err)
	}
	b, err := drawInputs(5, 40)
	if err != nil {
		t.Fatal(err)
	}
	c, err := drawInputs(6, 40)
	if err != nil {
		t.Fatal(err)
	}
	if inputDigest(a) != inputDigest(b) {
		t.Error("the same seed produced different inputs")
	}
	if inputDigest(a) == inputDigest(c) {
		t.Error("different seeds produced the same inputs")
	}
	var perHalf [numStrata][2]int
	for i, in := range a {
		if strings.Contains(in.src, "#pragma omp") {
			t.Errorf("%s: OpenMP pragma left in the input", in.name)
		}
		perHalf[in.stratum][2*i/len(a)]++
	}
	// Stratified: both halves of the draw hold each class's share.
	for k, c := range perHalf {
		if c[0]-c[1] > 1 || c[1]-c[0] > 1 {
			t.Errorf("class %d: %d files in the first half of the draw, %d in the second", k, c[0], c[1])
		}
	}
}

func TestInputSeedNeverTrainSeed(t *testing.T) {
	for s := uint64(0); s < 100000; s++ {
		if inputSeed(s) == trainSeed {
			t.Fatalf("input seed %d maps to the training seed", s)
		}
	}
}

func TestResendShare(t *testing.T) {
	const n = 200000
	p := newPicker(7, n)
	resent := 0
	seen := map[int]bool{}
	for i := 0; i < n; i++ {
		f, ok := p.pick()
		if !ok {
			t.Fatal("pool used up")
		}
		if seen[f] {
			resent++
		}
		seen[f] = true
		if len(p.recent) > recentFiles {
			t.Fatalf("%d recent files kept, want at most %d", len(p.recent), recentFiles)
		}
	}
	if share := float64(resent) / n; math.Abs(share-0.4) > 0.005 {
		t.Errorf("re-send share %.4f, want 0.40", share)
	}
	p = newPicker(7, 3)
	for i := 0; i < 100; i++ {
		if _, ok := p.pick(); !ok {
			return
		}
	}
	t.Error("the picker never reported a used-up pool")
}

// TestSelfTimes checks that a parent's self time excludes its children, so
// layer self times partition the traced CPU time.
func TestSelfTimes(t *testing.T) {
	tr := &tracer{spans: []span{
		{Name: "file", CPU: 100, Parent: -1},
		{Name: "cparse", CPU: 30, Parent: 0},
		{Name: "loop", CPU: 70, Parent: 0},
		{Name: "hgt.predict", CPU: 50, Parent: 2},
	}}
	self := tr.selfCPU()
	want := map[string]time.Duration{"file": 0, "cparse": 30, "loop": 20, "hgt.predict": 50}
	var sum time.Duration
	for name, d := range want {
		if self[name] != d {
			t.Errorf("%s self time = %v, want %v", name, self[name], d)
		}
		sum += self[name]
	}
	if sum != 100 {
		t.Errorf("self times sum to %v, want the root's 100", sum)
	}
}

func TestPeakRSS(t *testing.T) {
	if err := resetPeakRSS(); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64<<20)
	for i := range buf {
		buf[i] = byte(i)
	}
	mb, err := peakRSSMB()
	if err != nil {
		t.Fatal(err)
	}
	if mb < 64 {
		t.Errorf("peak %.1f MB after touching 64 MB", mb)
	}
	buf[0]++
}

func TestHostTimes(t *testing.T) {
	m, err := startSteal()
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	share, err := m.share()
	if err != nil || share < 0 || share > 1 {
		t.Errorf("steal share %v, %v", share, err)
	}
}

// TestBenchmarkJSONNames checks that BENCHMARK.json at the repository root
// lists exactly the metrics the benchmark reports, with the same units.
func TestBenchmarkJSONNames(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	e2e := endToEnd(timings{1, 1, 1, 1}, 1, 1, 1, 1, 0).Metrics
	if len(spec.EndToEnd) != len(e2e) {
		t.Errorf("BENCHMARK.json lists %d end-to-end metrics, the benchmark reports %d", len(spec.EndToEnd), len(e2e))
	}
	for _, m := range spec.EndToEnd {
		if got, ok := e2e[m.Name]; !ok || got.Unit != m.Unit {
			t.Errorf("end-to-end %s (%s): reported as %+v", m.Name, m.Unit, got)
		}
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Errorf("BENCHMARK.json lists %d per-layer metrics, the benchmark reports %d", len(spec.PerLayer), len(perLayer))
	}
	for i, m := range spec.PerLayer {
		if i < len(perLayer) && (perLayer[i].name != m.Name || perLayer[i].unit != m.Unit) {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %s (%s), the benchmark %s (%s)", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
}

// TestReplayMatchesSerial replays a small draw, some of it through verify
// and rewrite: every replayed prediction must equal the serial pass's, and
// the layer self times plus the unattributed time must add up to the
// serial pass.
func TestReplayMatchesSerial(t *testing.T) {
	e := engineForTest(t)
	ins, err := drawInputs(3, 16)
	if err != nil {
		t.Fatal(err)
	}
	r, err := newReplay(&env{out: t.TempDir()}, e)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.group(ins[:8], 0, 4); err != nil {
		t.Fatal(err)
	}
	if err := r.group(ins[8:], 8, 0); err != nil {
		t.Fatal(err)
	}
	if r.mismatches != 0 {
		t.Errorf("%d replayed predictions differ from the serial pass", r.mismatches)
	}
	m := r.metrics(1)
	sum := m["engine.unattributed_cpu_ms"].Value
	for _, name := range []string{"cparse.cpu_ms", "auggraph.build_cpu_ms", "auggraph.dot_cpu_ms", "hgt.predict_cpu_ms",
		"tools.autopar.cpu_ms", "tools.pluto.cpu_ms", "tools.discopop.cpu_ms", "verify.cpu_ms", "rewrite.plan_cpu_ms"} {
		sum += m[name].Value
	}
	self := r.tr.selfCPU()
	sum += ms(self["rewrite.apply"])
	if serial := m["engine.serial_cpu_ms"].Value; math.Abs(sum-serial) > 1e-6 {
		t.Errorf("layer self times plus unattributed = %v ms, serial pass = %v ms", sum, serial)
	}
	if r.loops == 0 || m["hgt.batch_cpu_ms"].Value == 0 {
		t.Error("the replay scored no loop in a batch")
	}
	for _, pl := range perLayer {
		if _, ok := m[pl.name]; !ok {
			t.Errorf("per-layer metric %s missing", pl.name)
		}
	}
}

// TestChecksCatchFlippedVerdict flips the labeled loop's verdict and
// expects the corpus digest check and the accuracy count to notice, and a
// serve body that differs from the reference to count as failed.
func TestChecksCatchFlippedVerdict(t *testing.T) {
	e := engineForTest(t)
	ins, err := drawInputs(4, 8)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := referencePass(e, ins)
	if err != nil {
		t.Fatal(err)
	}
	base := codeBases(ins)[0]
	out, err := e.AnalyzeFiles(base)
	if err != nil {
		t.Fatal(err)
	}
	if failed, _ := ref.check(base, out); failed != 0 {
		t.Fatalf("%d clean files failed the check", failed)
	}
	in := ins[0]
	rs := append([]graph2par.LoopReport(nil), out[in.name]...)
	wasRight := verdictRight(in, rs)
	rs[in.label].Parallel = !rs[in.label].Parallel
	out[in.name] = rs
	if failed, _ := ref.check(base, out); failed != 1 {
		t.Errorf("corpus check counted %d failures for one flipped verdict", failed)
	}
	if verdictRight(in, rs) == wasRight {
		t.Error("accuracy did not change with a flipped verdict")
	}

	c, err := newClient("http://127.0.0.1:0", ins, 1)
	if err != nil {
		t.Fatal(err)
	}
	want, err := expectedResponses(e, c, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	good := exchange{file: 0, status: 200, body: want[0].body}
	bad := good
	bad.body[0]++
	if failed, _ := checkExchanges([]exchange{good, bad}, want); failed != 1 {
		t.Errorf("serve check counted %d failures for one corrupted body", failed)
	}
}

// TestCalibratorCountsOnlyItsThread runs the calibration kernel while
// another goroutine burns CPU: the kernel must be charged its own thread's
// time only, about half of what the process used meanwhile.
func TestCalibratorCountsOnlyItsThread(t *testing.T) {
	k := newCalibrator()
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for x := 0; ; x++ {
			select {
			case <-stop:
				return
			default:
			}
		}
	}()
	c0 := cpuTime()
	var kernel time.Duration
	for i := 0; i < 40; i++ {
		kernel += k.run()
	}
	process := cpuTime() - c0
	close(stop)
	<-done
	if kernel <= 0 || kernel > process*8/10 {
		t.Errorf("kernel charged %v of %v process CPU", kernel, process)
	}
	for i := 0; i < 5; i++ {
		k.sample()
	}
	if s := k.scale(); s <= 0 || len(k.samples) != 0 {
		t.Errorf("scale %v with %d samples left", s, len(k.samples))
	}
}

func TestCompareRefusesOtherCoreCount(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, nproc int) string {
		rec := record{Machine: machine{NProc: nproc, GOMAXPROCS: nproc}, Workload: "corpus",
			Result: result{Correct: true, Attempted: 1, Metrics: map[string]metric{"setup_s": {1, "s"}}}}
		data, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		path := dir + "/" + name
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a, b, c := write("a.json", 2), write("b.json", 2), write("c.json", 4)
	var out strings.Builder
	if err := compareRecords(&out, a, b); err != nil {
		t.Errorf("same core count refused: %v", err)
	}
	if err := compareRecords(&out, a, c); err == nil {
		t.Error("records from 2 and 4 cores compared")
	}
	if err := summarizeRecords(&out, []string{a, c}); err == nil {
		t.Error("records from 2 and 4 cores summarized together")
	}
}
