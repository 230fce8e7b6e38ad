package discopop

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"graph2par/internal/cast"
	"graph2par/internal/cparse"
	"graph2par/internal/dataset"
	"graph2par/internal/tools"
)

// fileLoops lists a parsed file's loops in walk order, the order the
// engine hands them to AnalyzeFile.
func fileLoops(file *cast.File) []cast.Stmt {
	var loops []cast.Stmt
	for _, fn := range file.Funcs {
		cast.Walk(fn.Body, func(n cast.Node) bool {
			switch n.(type) {
			case *cast.For, *cast.While:
				loops = append(loops, n.(cast.Stmt))
			}
			return true
		})
	}
	return loops
}

// runnableSources returns every runnable example program (examples/c has
// no main anywhere, so only the ones that define main count) plus the
// runnable translation units of a seeded dataset draw.
func runnableSources(t *testing.T) map[string]string {
	t.Helper()
	srcs := map[string]string{}
	for _, dir := range []string{"../../../examples/c", "../../../examples/runnable"} {
		paths, err := filepath.Glob(filepath.Join(dir, "*.c"))
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range paths {
			raw, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			if strings.Contains(string(raw), "int main(") {
				srcs[p] = string(raw)
			}
		}
	}
	if len(srcs) < 5 {
		t.Fatalf("found %d runnable example programs, want at least 5", len(srcs))
	}
	for _, s := range dataset.Generate(dataset.Config{Scale: 0.02, Seed: 5}).Samples {
		if s.Runnable && s.FileSrc != "" {
			srcs["dataset/"+s.LoopSrc] = s.FileSrc
		}
	}
	return srcs
}

// TestAnalyzeFileMatchesPerLoop pins the one-run-per-file profile to the
// one-loop runs it replaces: for every runnable program, the verdicts of
// one AnalyzeFile over all of a file's loops are deep-equal to analyzing
// each loop on its own.
func TestAnalyzeFileMatchesPerLoop(t *testing.T) {
	d := New()
	files, loops, processable := 0, 0, 0
	reasons := map[string]bool{}
	for name, src := range runnableSources(t) {
		file, err := cparse.ParseFile(src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		ls := fileLoops(file)
		got := d.AnalyzeFile(file, ls)
		if len(got) != len(ls) {
			t.Fatalf("%s: %d verdicts for %d loops", name, len(got), len(ls))
		}
		for i, l := range ls {
			want := d.Analyze(tools.Sample{Loop: l, File: file, Compilable: true, Runnable: true})
			if !reflect.DeepEqual(got[i], want) {
				t.Errorf("%s loop %d (line %d):\n file run: %+v\n loop run: %+v", name, i, l.Pos().Line, got[i], want)
			}
			if want.Processable {
				processable++
			}
			reasons[strings.SplitN(want.Reason, " (", 2)[0]] = true
		}
		files++
		loops += len(ls)
	}
	// The corpus must reach both sides of the profile: loops the run
	// could judge, and whole programs it could not execute.
	if processable == 0 || !reasons["DiscoPoP: program not profilable"] {
		t.Errorf("corpus too narrow: %d processable loops, reasons %v", processable, reasons)
	}
	t.Logf("%d files, %d loops, %d processable", files, loops, processable)
}

// TestAnalyzeFileExamples pins the verdict of every loop of the runnable
// example programs.
func TestAnalyzeFileExamples(t *testing.T) {
	want := map[string][]string{
		"stencil.c": {"do-all pattern", "do-all pattern", "inter-iteration dependence", "reduction pattern"},
		// dot's loop comes first in walk order. Its s is a fresh cell per
		// call, and the watch resolves on the first entry only, so later
		// calls' s look like a shared scalar. The outer loops share j.
		"matmul.c": {"inter-iteration dependence", "inter-iteration dependence", "do-all pattern",
			"inter-iteration dependence", "do-all pattern"},
		"sparse.c": {"do-all pattern", "do-all pattern", "inter-iteration dependence", "reduction pattern",
			"loop-level analysis targets for-loops"},
		"mixed.c": {"do-all pattern", "call to non-instrumented function", "early exit",
			"reduction pattern", "mixed reduction and array-write pattern"},
		"budget.c": {"program not profilable (cinterp: step budget exhausted)",
			"program not profilable (cinterp: step budget exhausted)",
			"program not profilable (cinterp: step budget exhausted)"},
	}
	d := New()
	for name, reasons := range want {
		raw, err := os.ReadFile(filepath.Join("../../../examples/runnable", name))
		if err != nil {
			t.Fatal(err)
		}
		file, err := cparse.ParseFile(string(raw))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got := d.AnalyzeFile(file, fileLoops(file))
		if len(got) != len(reasons) {
			t.Fatalf("%s: %d verdicts, want %d", name, len(got), len(reasons))
		}
		for i, v := range got {
			if !strings.HasPrefix(v.Reason, "DiscoPoP: "+reasons[i]) {
				t.Errorf("%s loop %d: reason %q, want prefix %q", name, i, v.Reason, reasons[i])
			}
		}
	}
}

// TestAnalyzeFileWithoutFile: a translation unit that is not there cannot
// be profiled, whatever the loops.
func TestAnalyzeFileWithoutFile(t *testing.T) {
	vs := New().AnalyzeFile(nil, []cast.Stmt{&cast.For{}, &cast.While{}})
	for i, v := range vs {
		if v.Processable || !strings.Contains(v.Reason, "requires a runnable program") {
			t.Errorf("verdict %d = %+v", i, v)
		}
	}
}
