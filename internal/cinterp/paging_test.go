package cinterp

import (
	"errors"
	"fmt"
	"strings"
	"testing"
)

func TestUntouchedCellsReadAsZero(t *testing.T) {
	// A return value is the evaluated expression, uncoerced, so it shows
	// the exact Value a load produced.
	for _, tc := range []struct {
		decl string
		want Value
	}{
		{"double a[5000];", FloatVal(0)},
		{"float a[5000];", FloatVal(0)},
		{"int a[5000];", IntVal(0)},
		{"long a[5000];", IntVal(0)},
	} {
		src := fmt.Sprintf(`int main() { %s a[3] = 7; return a[4999]; }`, tc.decl)
		if got := mustRun(t, src); got != tc.want {
			t.Errorf("%s untouched cell = %#v, want %#v", tc.decl, got, tc.want)
		}
		// A never-stored cell of an allocated page reads the same.
		src = fmt.Sprintf(`int main() { %s a[3] = 7; return a[4]; }`, tc.decl)
		if got := mustRun(t, src); got != tc.want {
			t.Errorf("%s untouched cell of a stored page = %#v, want %#v", tc.decl, got, tc.want)
		}
	}
}

// captureArray runs src, whose second for loop (walk order) is traced,
// and returns the named array as captured at that loop's exit.
func captureArray(t *testing.T, src, name string) []Value {
	t.Helper()
	in, lt := prepTraced(t, src, 1)
	lt.CaptureNames = []string{name}
	if _, err := in.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	c, ok := lt.Captured[name]
	if !ok {
		t.Fatalf("%s not captured", name)
	}
	return c.Array
}

func TestInitializerListsSurvivePaging(t *testing.T) {
	// Initializers are stored as evaluated: an int literal in a double
	// array stays an int, and the rest of the array is the zero value.
	got := captureArray(t, `int main() {
        double a[2][1500] = {{1, 2.5}, {3}};
        int i;
        for (i = 0; i < 1; i++) { }
        for (i = 0; i < 1; i++) { }
        return 0;
    }`, "a")
	if len(got) != 3000 {
		t.Fatalf("captured %d cells, want 3000", len(got))
	}
	want := map[int]Value{0: IntVal(1), 1: FloatVal(2.5), 2: IntVal(3), 3: FloatVal(0), 2999: FloatVal(0)}
	for i, w := range want {
		if got[i] != w {
			t.Errorf("a[%d] = %#v, want %#v", i, got[i], w)
		}
	}

	// A list longer than a page fills across the page boundary.
	n := pageSize + 5
	vals := make([]string, n)
	for i := range vals {
		vals[i] = fmt.Sprint(i + 1)
	}
	got = captureArray(t, fmt.Sprintf(`int main() {
        int b[%d] = {%s};
        int i;
        for (i = 0; i < 1; i++) { }
        for (i = 0; i < 1; i++) { }
        return 0;
    }`, n+3, strings.Join(vals, ", ")), "b")
	for i := 0; i < n+3; i++ {
		want := IntVal(int64(i + 1))
		if i >= n {
			want = IntVal(0)
		}
		if got[i] != want {
			t.Fatalf("b[%d] = %#v, want %#v", i, got[i], want)
		}
	}
}

func TestCaptureReturnsFullArray(t *testing.T) {
	// Three pages, the last one partial, only the middle one ever stored.
	got := captureArray(t, `int main() {
        double a[2500];
        int i;
        for (i = 0; i < 1; i++) { }
        for (i = 1500; i < 1503; i++) { a[i] = i; }
        return 0;
    }`, "a")
	if len(got) != 2500 {
		t.Fatalf("captured %d cells, want 2500", len(got))
	}
	for i, v := range got {
		want := FloatVal(0)
		if i >= 1500 && i < 1503 {
			want = FloatVal(float64(i)) // a[i] = i coerces to the cell's kind
		}
		if v != want {
			t.Fatalf("a[%d] = %#v, want %#v", i, v, want)
		}
	}
}

func TestArrayCellLimitUnchanged(t *testing.T) {
	for _, decl := range []string{"int a[4000001];", "double a[2001][2000];"} {
		_, err := run(t, "int main() { "+decl+" return 0; }")
		var unsup *ErrUnsupported
		if !errors.As(err, &unsup) || err.Error() != "cinterp: unsupported: array too large for interpretation" {
			t.Errorf("%s: err = %v, want the array-too-large error", decl, err)
		}
	}
	// The limit itself is still allowed, and costs only the touched page.
	if v := mustRun(t, `int main() { int a[4000000]; a[3999999] = 5; return a[3999999]; }`); v != IntVal(5) {
		t.Errorf("4M-cell array: got %v, want 5", v)
	}
}

func TestNestedTracedLoopsOwnIterations(t *testing.T) {
	const src = `int main() {
        int a[12];
        int s = 0;
        int i, j;
        for (i = 0; i < 3; i++) {
            for (j = 0; j < 4; j++) {
                a[i * 4 + j] = i + j;
            }
            s = s + a[i * 4];
        }
        return s;
    }`
	in, outer := prepTraced(t, src, 0)
	inner := in.TraceLoop(findLoop(t, in.file, 1))
	if in.TraceLoop(outer.Loop) != outer {
		t.Fatal("tracing a loop twice must return its record")
	}
	type rec struct {
		elem int64
		iter int
	}
	var outerW, innerW []rec
	var outerOnly int
	outer.Trace = func(a Addr, w bool, it int) {
		if w && a.IsArrayElem() {
			outerW = append(outerW, rec{a.Elem, it})
		}
		if !w && a.IsArrayElem() && a.Elem%4 == 0 {
			outerOnly++
		}
	}
	inner.Trace = func(a Addr, w bool, it int) {
		if w && a.IsArrayElem() {
			innerW = append(innerW, rec{a.Elem, it})
		}
		if !w && a.IsArrayElem() {
			t.Errorf("inner loop saw the outer body's read of a[%d]", a.Elem)
		}
	}
	if v, err := in.Run(); err != nil || v.AsInt() != 0+1+2 {
		t.Fatalf("run = %v, %v; want 3", v, err)
	}
	if len(outerW) != 12 || len(innerW) != 12 {
		t.Fatalf("array writes seen: outer %d, inner %d; want 12 each", len(outerW), len(innerW))
	}
	for k := range outerW {
		e := outerW[k].elem
		if outerW[k].iter != int(e/4) || innerW[k].elem != e || innerW[k].iter != int(e%4) {
			t.Errorf("write of a[%d]: outer iter %d (want %d), inner iter %d (want %d)",
				e, outerW[k].iter, e/4, innerW[k].iter, e%4)
		}
	}
	if outerOnly != 3 {
		t.Errorf("outer loop saw %d reads of a[i*4], want 3", outerOnly)
	}
}

func TestTracingDoesNotChangeTheRun(t *testing.T) {
	const src = `int main() {
        int a[64];
        int s = 0;
        int i;
        for (i = 0; i < 64; i++) a[i] = i;
        for (i = 0; i < 64; i++) s += a[i];
        return s;
    }`
	plain, _ := prepTraced(t, src, 0)
	plain.traced = nil
	want, err := plain.Run()
	if err != nil {
		t.Fatal(err)
	}
	traced, lt := prepTraced(t, src, 0)
	traced.TraceLoop(findLoop(t, traced.file, 1)).Trace = func(Addr, bool, int) {}
	lt.Trace = func(Addr, bool, int) {}
	got, err := traced.Run()
	if err != nil || got != want || traced.steps != plain.steps || traced.nextID != plain.nextID {
		t.Errorf("traced run = %v (%d steps, %d objects), untraced = %v (%d steps, %d objects)",
			got, traced.steps, traced.nextID, want, plain.steps, plain.nextID)
	}
}
