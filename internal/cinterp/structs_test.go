package cinterp

import (
	"errors"
	"testing"

	"graph2par/internal/cparse"
)

func TestStructScalarFields(t *testing.T) {
	v := mustRun(t, `
struct point { int x; int y; };
int main() {
    struct point p;
    p.x = 3;
    p.y = 4;
    return p.x * p.x + p.y * p.y;
}`)
	if v.AsInt() != 25 {
		t.Errorf("got %v, want 25", v)
	}
}

func TestStructArraySumLoop(t *testing.T) {
	// Listing-2 family: iterate a struct array, accumulate field values.
	v := mustRun(t, `
struct pixel { int r; int g; int b; };
int main() {
    struct pixel img[10];
    int i, total = 0;
    for (i = 0; i < 10; i++) {
        img[i].r = i;
        img[i].g = i * 2;
        img[i].b = 1;
    }
    for (i = 0; i < 10; i++) {
        total += img[i].r + img[i].g + img[i].b;
    }
    return total;
}`)
	// sum r=0..9 (45) + g=0..18 (90) + b (10) = 145
	if v.AsInt() != 145 {
		t.Errorf("got %v, want 145", v)
	}
}

func TestStructFloatField(t *testing.T) {
	v := mustRun(t, `
struct s { double w; };
int main() {
    struct s a;
    a.w = 2.5;
    a.w = a.w * 2.0;
    return (int)a.w;
}`)
	if v.AsInt() != 5 {
		t.Errorf("got %v, want 5", v)
	}
}

func TestStructFieldsHaveDistinctTraceAddresses(t *testing.T) {
	src := `
struct pair { int a; int b; };
int main() {
    struct pair arr[4];
    int i;
    for (i = 0; i < 4; i++) { arr[i].a = 0; arr[i].b = 0; }
    for (i = 0; i < 4; i++) {
        arr[i].a = i;
        arr[i].b = i + 1;
    }
    return arr[3].a;
}`
	f, err := cparse.ParseFile(src)
	if err != nil {
		t.Fatal(err)
	}
	in := New(f)
	lt := in.TraceLoop(findLoop(t, f, 1))
	addrs := map[Addr]bool{}
	lt.Trace = func(a Addr, w bool, iter int) {
		if w {
			addrs[a] = true
		}
	}
	if _, err := in.Run(); err != nil {
		t.Fatal(err)
	}
	// 4 elements × 2 fields + iv increments ⇒ at least 9 distinct
	// written addresses.
	if len(addrs) < 9 {
		t.Errorf("distinct written addrs = %d, want >= 9", len(addrs))
	}
}

func TestArrowUnsupported(t *testing.T) {
	_, err := run(t, `
struct node { int v; };
int main() {
    struct node n;
    return n->v;
}`)
	var ue *ErrUnsupported
	if !errors.As(err, &ue) {
		t.Errorf("err = %v, want ErrUnsupported for ->", err)
	}
}

func TestUnknownFieldError(t *testing.T) {
	_, err := run(t, `
struct s { int a; };
int main() { struct s x; return x.z; }`)
	if err == nil {
		t.Error("want error for unknown field")
	}
}

func TestStructArrayBounds(t *testing.T) {
	_, err := run(t, `
struct s { int a; };
int main() { struct s arr[3]; return arr[7].a; }`)
	if err == nil {
		t.Error("want bounds error")
	}
}

func TestNestedStructUnsupported(t *testing.T) {
	_, err := run(t, `
struct inner { int v; };
struct outer { struct inner in; };
int main() { struct outer o; return 0; }`)
	var ue *ErrUnsupported
	if !errors.As(err, &ue) {
		t.Errorf("err = %v, want ErrUnsupported for nested struct", err)
	}
}
