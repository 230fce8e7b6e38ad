package graph2par

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"
)

// runnableCorpus returns the multi-loop runnable programs of
// examples/runnable plus a few generated ones.
func runnableCorpus(t testing.TB) map[string]string {
	t.Helper()
	files := corpusFiles(3)
	paths, err := filepath.Glob("examples/runnable/*.c")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		files[filepath.Base(p)] = string(raw)
	}
	if len(files) < 8 {
		t.Fatalf("runnable corpus has %d files, want at least 8", len(files))
	}
	return files
}

// profiledEngine is a copy of the shared test engine with its own
// DiscoPoP run counter.
func profiledEngine(t *testing.T, workers, batch, cacheSize int) *Engine {
	t.Helper()
	e := *engine(t)
	e.SetWorkers(workers)
	e.SetBatchSize(batch)
	e.SetCacheSize(cacheSize)
	e.dpRuns = &atomic.Int64{}
	return &e
}

// TestDiscoPoPProfileOncePerFile pins the shared per-file DiscoPoP
// profile: reports of multi-loop runnable files are byte-identical across
// worker counts, batch sizes and cache on/off; each call profiles each
// file at most once; and a call whose loops all hit the cache profiles
// nothing.
func TestDiscoPoPProfileOncePerFile(t *testing.T) {
	files := runnableCorpus(t)
	ref, err := profiledEngine(t, 1, 1, 0).AnalyzeFiles(files)
	if err != nil {
		t.Fatal(err)
	}
	refJSON, err := json.Marshal(ref)
	if err != nil {
		t.Fatal(err)
	}
	processable := 0
	for _, rs := range ref {
		for _, r := range rs {
			if r.Tools[2].Tool != "DiscoPoP" {
				t.Fatalf("tool order changed: %+v", r.Tools)
			}
			if r.Tools[2].Processable {
				processable++
			}
		}
	}
	if processable == 0 {
		t.Fatal("no loop was profiled; the check proves nothing")
	}
	check := func(name string, e *Engine, wantRuns int64) {
		t.Helper()
		before := e.dpRuns.Load()
		got, err := e.AnalyzeFiles(files)
		if err != nil {
			t.Fatal(err)
		}
		if runs := e.dpRuns.Load() - before; runs != wantRuns {
			t.Errorf("%s: %d DiscoPoP runs, want %d", name, runs, wantRuns)
		}
		gotJSON, err := json.Marshal(got)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, ref) || string(gotJSON) != string(refJSON) {
			t.Errorf("%s: reports differ from the 1-worker, batch-1, uncached run", name)
		}
	}
	nfiles := int64(len(files))
	for _, workers := range []int{1, 2} {
		for _, batch := range []int{1, 16} {
			check("uncached", profiledEngine(t, workers, batch, 0), nfiles)
			cached := profiledEngine(t, workers, batch, 1<<12)
			check("cold cache", cached, nfiles)
			check("warm cache", cached, 0)
		}
	}

	// AnalyzeSource shares the same per-file profile.
	e := profiledEngine(t, 2, 16, 0)
	for name, src := range files {
		rs, err := e.AnalyzeSource(src)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(rs, ref[name]) {
			t.Errorf("%s: AnalyzeSource disagrees with AnalyzeFiles", name)
		}
	}
	if runs := e.dpRuns.Load(); runs != nfiles {
		t.Errorf("AnalyzeSource: %d DiscoPoP runs for %d files", runs, nfiles)
	}
}
