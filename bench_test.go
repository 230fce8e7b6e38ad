// Benchmarks: one per table and figure of the paper's evaluation, plus the
// section 6.5 overhead measurement and the DESIGN.md ablations. Each bench
// regenerates its artifact end to end (corpus → tools/models → table) so
// `go test -bench=.` reproduces the whole evaluation; the suite fixture is
// shared and cached where the paper's protocol allows it.
package graph2par

import (
	"runtime"
	"sync"
	"testing"

	"graph2par/internal/auggraph"
	"graph2par/internal/cast"
	"graph2par/internal/cparse"
	"graph2par/internal/dataset"
	"graph2par/internal/experiments"
	"graph2par/internal/tools"
	"graph2par/internal/tools/discopop"
	"graph2par/internal/train"
)

var (
	benchSuite     *experiments.Suite
	benchSuiteOnce sync.Once

	benchEngine     *Engine
	benchEngineOnce sync.Once
	benchEngineErr  error
)

// suite returns the shared benchmark suite (small scale: the shapes of the
// paper's results emerge; absolute counts scale with -scale in
// cmd/evaluate).
func suite() *experiments.Suite {
	benchSuiteOnce.Do(func() {
		cfg := experiments.DefaultConfig()
		cfg.Scale = 0.02
		cfg.Seed = 20230501
		cfg.Training = train.Options{
			Epochs: 4, BatchSize: 8, LR: 3e-3,
			Hidden: 32, Heads: 4, Layers: 2, Seed: 77,
			Graph: auggraph.Default(),
		}
		benchSuite = experiments.NewSuite(cfg)
	})
	return benchSuite
}

// BenchmarkTable1_DatasetStats regenerates the OMP_Serial statistic
// summary (corpus generation + aggregation).
func BenchmarkTable1_DatasetStats(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c := dataset.Generate(dataset.Config{Scale: 0.02, Seed: uint64(i) + 1})
		r := (&experiments.Suite{Corpus: c}).Table1()
		if len(r.Rows) == 0 {
			b.Fatal("empty table 1")
		}
	}
}

// BenchmarkFigure2_MissedLoops reproduces the category-wise missed-loop
// histogram of the three tools.
func BenchmarkFigure2_MissedLoops(b *testing.B) {
	st := suite()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := st.Figure2()
		if len(r.Missed) != 3 {
			b.Fatal("missing tools")
		}
	}
}

// BenchmarkTable2_RepresentationComparison trains AST, PragFormer and
// Graph2Par and scores pragma-existence prediction.
func BenchmarkTable2_RepresentationComparison(b *testing.B) {
	st := suite()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := st.Table2()
		if len(r.Rows) != 3 {
			b.Fatal("expected 3 approaches")
		}
	}
}

// BenchmarkTable3_DetectedLoops counts detected parallel loops per
// approach.
func BenchmarkTable3_DetectedLoops(b *testing.B) {
	st := suite()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := st.Table3()
		if len(r.Rows) != 5 {
			b.Fatal("expected 5 approaches")
		}
	}
}

// BenchmarkTable4_SubsetComparison evaluates each tool against Graph2Par
// on the loops that tool can process.
func BenchmarkTable4_SubsetComparison(b *testing.B) {
	st := suite()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := st.Table4()
		if len(r.Subsets) != 3 {
			b.Fatal("expected 3 subsets")
		}
	}
}

// BenchmarkTable5_PragmaClassification trains the four per-pragma heads
// for Graph2Par and PragFormer.
func BenchmarkTable5_PragmaClassification(b *testing.B) {
	st := suite()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := st.Table5()
		if len(r.Rows) != 8 {
			b.Fatal("expected 8 rows")
		}
	}
}

// BenchmarkAugASTConstruction measures section 6.5's overhead claim: the
// cost of building one aug-AST for a typical dataset loop.
func BenchmarkAugASTConstruction(b *testing.B) {
	loop, err := cparse.ParseStmt(`for (i = 0; i < 30000000; i++)
        error = error + fabs(a[i] - a[i+1]);`)
	if err != nil {
		b.Fatal(err)
	}
	opts := auggraph.Default()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := auggraph.Build(loop, opts)
		if len(g.Nodes) == 0 {
			b.Fatal("empty graph")
		}
	}
}

// BenchmarkCaseStudy_ToolBlindSpots reproduces section 6.6: loops missed
// by every tool, re-scored by Graph2Par.
func BenchmarkCaseStudy_ToolBlindSpots(b *testing.B) {
	st := suite()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := st.CaseStudy()
		if r.MissedByAllTools == 0 {
			b.Fatal("no blind spots found")
		}
	}
}

// BenchmarkAblationEdges toggles the aug-AST edge families.
func BenchmarkAblationEdges(b *testing.B) {
	st := suite()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := st.AblationEdges()
		if len(r.Rows) != 4 {
			b.Fatal("expected 4 edge configs")
		}
	}
}

// BenchmarkAblationHeterogeneity compares normalized vs raw identifiers.
func BenchmarkAblationHeterogeneity(b *testing.B) {
	st := suite()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := st.AblationHeterogeneity()
		if len(r.Rows) != 2 {
			b.Fatal("expected 2 configs")
		}
	}
}

// BenchmarkAblationCapacity sweeps heads/layers.
func BenchmarkAblationCapacity(b *testing.B) {
	st := suite()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := st.AblationCapacity()
		if len(r.Rows) != 3 {
			b.Fatal("expected 3 configs")
		}
	}
}

// BenchmarkHGTForward isolates one HGT forward pass (inference cost per
// loop).
func BenchmarkHGTForward(b *testing.B) {
	st := suite()
	model, vocab := st.Graph2Par()
	set := train.PrepareGraphs(st.Test[:1], auggraph.Default(), vocab, train.ParallelLabel)
	if len(set.Encoded) == 0 {
		b.Fatal("no test graph")
	}
	enc := set.Encoded[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		model.Predict(enc)
	}
}

// analysisEngine returns a shared quickly-trained engine for the
// AnalyzeFiles benchmarks (training cost must stay out of the timed loop).
func analysisEngine(b *testing.B) *Engine {
	benchEngineOnce.Do(func() {
		benchEngine, benchEngineErr = NewEngine(EngineConfig{
			TrainScale: 0.01, Epochs: 3, Seed: 9, Quiet: true,
		})
	})
	if benchEngineErr != nil {
		b.Fatal(benchEngineErr)
	}
	return benchEngine
}

// benchCorpusSize is the corpus the AnalyzeFiles benchmark family shares:
// all four variants (Serial/Parallel/Cached/Batched) analyze the same 32
// files so their ns/op are directly comparable — these four are the rows
// of BENCH_pr3.json and the regression gate in CI.
const benchCorpusSize = 32

// benchmarkAnalyzeFiles measures one full corpus analysis pass — parse,
// aug-AST build, HGT inference, tool cross-checks — over the shared
// 32-file corpus with the given worker-pool and inference-batch bounds
// (batch 1 = one forward pass per loop, the pre-batching pipeline).
func benchmarkAnalyzeFiles(b *testing.B, workers, batch int) {
	e := *analysisEngine(b)
	e.SetWorkers(workers)
	e.SetBatchSize(batch)
	files := corpusFiles(benchCorpusSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := e.AnalyzeFiles(files)
		if err != nil {
			b.Fatal(err)
		}
		if len(out) != len(files) {
			b.Fatalf("analyzed %d of %d files", len(out), len(files))
		}
	}
}

// BenchmarkAnalyzeFilesSerial is the Workers=1, unbatched baseline.
func BenchmarkAnalyzeFilesSerial(b *testing.B) { benchmarkAnalyzeFiles(b, 1, 1) }

// BenchmarkAnalyzeFilesParallel runs the same corpus unbatched with a full
// GOMAXPROCS pool; the ratio to Serial is the measured speedup of the
// concurrent per-loop pipeline.
func BenchmarkAnalyzeFilesParallel(b *testing.B) {
	benchmarkAnalyzeFiles(b, runtime.GOMAXPROCS(0), 1)
}

// BenchmarkAnalyzeFilesBatched runs the same corpus and the same
// GOMAXPROCS pool with size-bucketed batched inference (the default
// DefaultBatchSize bound): the ratio to Parallel is the measured win of
// amortizing per-graph op dispatch across shared forward passes.
func BenchmarkAnalyzeFilesBatched(b *testing.B) {
	benchmarkAnalyzeFiles(b, runtime.GOMAXPROCS(0), DefaultBatchSize)
}

// BenchmarkAnalyzeFilesCached is BenchmarkAnalyzeFilesSerial with the
// content-addressed analysis cache enabled and warmed: the same 32-file
// corpus, the same single worker, but every loop served from the cache —
// the repeat-query hot path of a long-running graph2serve instance. The
// ratio to BenchmarkAnalyzeFilesSerial is the measured cache win.
func BenchmarkAnalyzeFilesCached(b *testing.B) {
	e := *analysisEngine(b)
	e.SetWorkers(1)
	e.SetBatchSize(1)
	e.SetCacheSize(1 << 14)
	files := corpusFiles(benchCorpusSize)
	if _, err := e.AnalyzeFiles(files); err != nil { // warm the cache
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := e.AnalyzeFiles(files)
		if err != nil {
			b.Fatal(err)
		}
		if len(out) != len(files) {
			b.Fatalf("analyzed %d of %d files", len(out), len(files))
		}
	}
	b.StopTimer()
	if st, ok := e.CacheStats(); !ok || st.Hits == 0 {
		b.Fatal("cache never hit; the benchmark measured nothing")
	}
}

// BenchmarkRewriteFile measures the full analyze-plus-rewrite path over
// the shared corpus at Workers=1, batch 1 — the same configuration as
// BenchmarkAnalyzeFilesSerial, so the ratio between the two rows is the
// measured cost of the rewrite stage itself (clause derivation, verify
// gating, dynamic validation and the splice) on top of plain analysis.
// CI pins that ratio with a within-run benchjson gate.
func BenchmarkRewriteFile(b *testing.B) {
	e := *analysisEngine(b)
	e.SetWorkers(1)
	e.SetBatchSize(1)
	e.SetRewrite(true)
	files := corpusFiles(benchCorpusSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, src := range files {
			if _, err := e.RewriteSource(src); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkToolAnalysis isolates the per-loop cost of each comparator.
func BenchmarkToolAnalysis(b *testing.B) {
	st := suite()
	for _, tool := range st.Tools {
		tool := tool
		b.Run(tool.Name(), func(b *testing.B) {
			// rotate over the corpus to average across loop shapes
			n := len(st.Corpus.Samples)
			for i := 0; i < b.N; i++ {
				s := st.Corpus.Samples[i%n]
				tool.Analyze(tools.Sample{
					Loop: s.Loop, File: s.File,
					Compilable: s.Compilable, Runnable: s.Runnable,
				})
			}
		})
	}
}

// discopopUnits parses the runnable corpus into (file, loops) pairs.
func discopopUnits(b *testing.B) (files []*cast.File, loops [][]cast.Stmt) {
	for name, src := range runnableCorpus(b) {
		file, err := cparse.ParseFile(src)
		if err != nil {
			b.Fatalf("%s: %v", name, err)
		}
		_, ls := collectLoops(file)
		files, loops = append(files, file), append(loops, ls)
	}
	return files, loops
}

// BenchmarkStageDiscoPoP is the DiscoPoP row of the per-layer ledger: one
// op profiles every loop of the runnable corpus the way the engine does,
// with one interpreted run of main per translation unit.
func BenchmarkStageDiscoPoP(b *testing.B) {
	files, loops := discopopUnits(b)
	dp := discopop.New()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k, f := range files {
			dp.AnalyzeFile(f, loops[k])
		}
	}
}

// BenchmarkStageDiscoPoPPerLoop profiles the same loops with one run of
// main per loop, as Analyze does for a lone sample. Its ratio to
// BenchmarkStageDiscoPoP is what sharing the run saves; CI gates it.
func BenchmarkStageDiscoPoPPerLoop(b *testing.B) {
	files, loops := discopopUnits(b)
	dp := discopop.New()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k, f := range files {
			for _, l := range loops[k] {
				dp.Analyze(tools.Sample{Loop: l, File: f, Compilable: true, Runnable: true})
			}
		}
	}
}
