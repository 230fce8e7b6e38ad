package cinterp

import (
	"errors"
	"fmt"

	"graph2par/internal/cast"
)

// ErrStepBudget is returned when execution exceeds the configured step
// budget (the analogue of a profiling run being too expensive).
var ErrStepBudget = errors.New("cinterp: step budget exhausted")

// ErrUnsupported wraps constructs the interpreter cannot execute (pointers,
// unknown functions, ...), making the program unprocessable for the dynamic
// tool.
type ErrUnsupported struct{ What string }

func (e *ErrUnsupported) Error() string { return "cinterp: unsupported: " + e.What }

// Addr identifies a memory cell for tracing: an object ID plus a flattened
// element index. Scalars use Elem == ScalarElem; array elements use their
// flattened non-negative index; a whole-array reference (from Watched) uses
// Elem == WholeArrayElem.
type Addr struct {
	Obj  int
	Elem int64
}

// Sentinel Elem values for Addr.
const (
	ScalarElem     int64 = -1
	WholeArrayElem int64 = -2
)

// IsArrayElem reports whether the address names an array element.
func (a Addr) IsArrayElem() bool { return a.Elem >= 0 }

// TraceFunc receives every access made while a traced loop is executing.
// iter is the 0-based iteration index of that loop; write distinguishes
// stores from loads.
type TraceFunc func(addr Addr, write bool, iter int)

// LoopTrace instruments one for loop of the interpreted file. Create it
// with Interp.TraceLoop and configure it before Run. Any number of loops
// can be traced in one run: an access made while several traced loops are
// inside their bodies (nested loops, or a loop in a function called from
// another's body) is reported to each of them, tagged with that loop's own
// iteration index. Tracing only observes: step counts, object IDs and
// errors are the same whichever loops are traced.
type LoopTrace struct {
	// Loop is the traced loop.
	Loop *cast.For
	// Trace receives the accesses made inside the loop's body and post
	// expression, at any call depth.
	Trace TraceFunc

	// WatchNames asks the interpreter to resolve these variable names to
	// trace addresses when the loop is first entered; results land in
	// Watched. Names that do not resolve to a scalar or array are simply
	// absent.
	WatchNames []string
	Watched    map[string]Addr

	// CaptureNames asks for a snapshot of these variables' values when the
	// loop exits (on any path); results land in Captured. Names that do
	// not resolve at the loop's scope are simply absent.
	CaptureNames []string
	Captured     map[string]Capture

	// Reverse executes the loop's iterations back to front: the
	// induction-variable sequence is simulated first (condition and post
	// expression only), then the bodies run last iteration first. This is
	// the rewrite validator's parallel-order probe — any cross-iteration
	// dependence the serial order hid changes the observable state.
	// ReverseIndVar names the induction variable; it must resolve to a
	// scalar at the loop's scope.
	Reverse       bool
	ReverseIndVar string

	inBody bool
	iter   int
}

// TraceLoop adds loop to the run's set of traced loops and returns its
// record. Each loop is traced at most once; a second call for the same
// loop returns the existing record.
func (in *Interp) TraceLoop(loop *cast.For) *LoopTrace {
	if lt := in.loopTrace(loop); lt != nil {
		return lt
	}
	lt := &LoopTrace{Loop: loop}
	in.traced = append(in.traced, lt)
	return lt
}

// loopTrace returns the record tracing f, or nil.
func (in *Interp) loopTrace(f *cast.For) *LoopTrace {
	for _, lt := range in.traced {
		if lt.Loop == f {
			return lt
		}
	}
	return nil
}

// enterBody marks lt as executing iteration iter: accesses from now on are
// reported to it.
func (in *Interp) enterBody(lt *LoopTrace, iter int) {
	lt.iter = iter
	if !lt.inBody {
		lt.inBody = true
		in.active = append(in.active, lt)
	}
}

// leaveBody stops reporting accesses to lt.
func (in *Interp) leaveBody(lt *LoopTrace) {
	if !lt.inBody {
		return
	}
	lt.inBody = false
	for k, a := range in.active {
		if a == lt {
			in.active = append(in.active[:k], in.active[k+1:]...)
			return
		}
	}
}

// cell is a scalar storage location.
type cell struct {
	id  int
	val Value
}

// Arrays store their cells in fixed-size pages, each allocated on the
// first store into it: a program that declares a large array but touches
// a few cells pays for those pages only.
const (
	pageShift = 10
	pageSize  = 1 << pageShift
	pageMask  = pageSize - 1
)

// array is a (possibly multi-dimensional) array object. A cell of a page
// that was never stored to reads as zero, the array's zero value.
type array struct {
	id    int
	dims  []int64
	n     int64
	zero  Value
	pages [][]Value
}

// get reads cell i.
func (a *array) get(i int64) Value {
	if p := a.pages[i>>pageShift]; p != nil {
		return p[i&pageMask]
	}
	return a.zero
}

// set writes cell i, allocating its page on first use.
func (a *array) set(i int64, v Value) {
	k := i >> pageShift
	p := a.pages[k]
	if p == nil {
		p = make([]Value, min(pageSize, a.n-k<<pageShift))
		if a.zero != (Value{}) {
			for j := range p {
				p[j] = a.zero
			}
		}
		a.pages[k] = p
	}
	p[i&pageMask] = v
}

// values returns a dense copy of every cell.
func (a *array) values() []Value {
	out := make([]Value, a.n)
	for i := range out {
		out[i] = a.get(int64(i))
	}
	return out
}

func (a *array) flatten(idx []int64) (int64, error) {
	if len(idx) != len(a.dims) {
		return 0, fmt.Errorf("array rank mismatch: %d subscripts, %d dims", len(idx), len(a.dims))
	}
	var flat int64
	for d, i := range idx {
		if i < 0 || i >= a.dims[d] {
			return 0, fmt.Errorf("index %d out of bounds [0,%d)", i, a.dims[d])
		}
		flat = flat*a.dims[d] + i
	}
	return flat, nil
}

// binding is what a name resolves to.
type binding struct {
	cell *cell
	arr  *array
	sobj *structObj
	sarr *structArray
}

// scope is a lexical environment frame.
type scope struct {
	vars   map[string]binding
	parent *scope
}

func newScope(parent *scope) *scope {
	return &scope{vars: map[string]binding{}, parent: parent}
}

func (s *scope) lookup(name string) (binding, bool) {
	for cur := s; cur != nil; cur = cur.parent {
		if b, ok := cur.vars[name]; ok {
			return b, true
		}
	}
	return binding{}, false
}

// Interp executes a parsed C file.
type Interp struct {
	file    *cast.File
	funcs   map[string]*cast.FuncDecl
	globals *scope

	// MaxSteps bounds execution; defaults to 2,000,000 evaluation steps.
	MaxSteps int
	steps    int

	// traced is the set of instrumented loops (see TraceLoop); active
	// holds those currently inside their bodies, in entry order.
	traced []*LoopTrace
	active []*LoopTrace

	nextID int
}

// New prepares an interpreter for the file.
func New(file *cast.File) *Interp {
	in := &Interp{
		file:     file,
		funcs:    map[string]*cast.FuncDecl{},
		MaxSteps: 2_000_000,
	}
	for _, f := range file.Funcs {
		if f.Body != nil {
			in.funcs[f.Name] = f
		}
	}
	return in
}

// control-flow signals
type signal int

const (
	sigNone signal = iota
	sigBreak
	sigContinue
	sigReturn
)

type execState struct {
	sig    signal
	retVal Value
}

// Run executes main() and returns its exit value.
func (in *Interp) Run() (Value, error) {
	in.globals = newScope(nil)
	for _, g := range in.file.Globals {
		if err := in.declare(in.globals, g); err != nil {
			return Value{}, err
		}
	}
	mainFn := in.funcs["main"]
	if mainFn == nil {
		return Value{}, &ErrUnsupported{What: "no main function"}
	}
	return in.callFunc(mainFn, nil)
}

func (in *Interp) step() error {
	in.steps++
	if in.steps > in.MaxSteps {
		return ErrStepBudget
	}
	return nil
}

func (in *Interp) newCell(v Value) *cell {
	in.nextID++
	return &cell{id: in.nextID, val: v}
}

// newArray allocates an array whose cells read as zero until stored to.
func (in *Interp) newArray(dims []int64, zero Value) (*array, error) {
	total := int64(1)
	for _, d := range dims {
		if d <= 0 {
			return nil, fmt.Errorf("non-positive array dimension %d", d)
		}
		total *= d
		if total > 4_000_000 {
			return nil, &ErrUnsupported{What: "array too large for interpretation"}
		}
	}
	in.nextID++
	pages := (total + pageSize - 1) >> pageShift
	return &array{id: in.nextID, dims: dims, n: total, zero: zero, pages: make([][]Value, pages)}, nil
}

func (in *Interp) declare(sc *scope, d *cast.VarDecl) error {
	if def, ok := in.structDef(d.Type); ok {
		return in.declareStruct(sc, d, def)
	}
	if len(d.ArrayDims) > 0 {
		dims := make([]int64, len(d.ArrayDims))
		for i, de := range d.ArrayDims {
			if de == nil {
				return &ErrUnsupported{What: "unsized array dimension"}
			}
			v, err := in.eval(sc, de)
			if err != nil {
				return err
			}
			dims[i] = v.AsInt()
		}
		zero := IntVal(0)
		if typeIsFloat(d.Type) {
			zero = FloatVal(0)
		}
		arr, err := in.newArray(dims, zero)
		if err != nil {
			return err
		}
		if d.Init != nil {
			lst, ok := d.Init.(*cast.InitList)
			if !ok {
				return &ErrUnsupported{What: "non-list array initializer"}
			}
			if err := in.fillInit(sc, arr, lst); err != nil {
				return err
			}
		}
		sc.vars[d.Name] = binding{arr: arr}
		return nil
	}
	if d.Pointer > 0 {
		return &ErrUnsupported{What: "pointer declaration"}
	}
	var v Value
	if typeIsFloat(d.Type) {
		v = FloatVal(0)
	} else {
		v = IntVal(0)
	}
	if d.Init != nil {
		iv, err := in.eval(sc, d.Init)
		if err != nil {
			return err
		}
		v = coerce(iv, typeIsFloat(d.Type))
	}
	c := in.newCell(v)
	sc.vars[d.Name] = binding{cell: c}
	in.traceAccess(Addr{Obj: c.id, Elem: ScalarElem}, true)
	return nil
}

func (in *Interp) fillInit(sc *scope, arr *array, lst *cast.InitList) error {
	flat := flattenInit(lst)
	if int64(len(flat)) > arr.n {
		return fmt.Errorf("too many initializers")
	}
	for i, e := range flat {
		v, err := in.eval(sc, e)
		if err != nil {
			return err
		}
		arr.set(int64(i), v)
	}
	return nil
}

func flattenInit(lst *cast.InitList) []cast.Expr {
	var out []cast.Expr
	for _, e := range lst.Elems {
		if inner, ok := e.(*cast.InitList); ok {
			out = append(out, flattenInit(inner)...)
		} else {
			out = append(out, e)
		}
	}
	return out
}

func typeIsFloat(t string) bool {
	switch t {
	case "float", "double", "long double":
		return true
	}
	return false
}

func coerce(v Value, wantFloat bool) Value {
	if wantFloat && !v.IsFloat {
		return FloatVal(float64(v.I))
	}
	if !wantFloat && v.IsFloat {
		return IntVal(int64(v.F))
	}
	return v
}

// traceAccess reports an access to every traced loop inside its body.
func (in *Interp) traceAccess(addr Addr, write bool) {
	for _, lt := range in.active {
		if lt.Trace != nil {
			lt.Trace(addr, write, lt.iter)
		}
	}
}

// callFunc invokes fn with evaluated arguments. Arrays are passed by
// reference (C decay), scalars by value.
func (in *Interp) callFunc(fn *cast.FuncDecl, args []binding) (Value, error) {
	if err := in.step(); err != nil {
		return Value{}, err
	}
	sc := newScope(in.globals)
	for i, p := range fn.Params {
		if i >= len(args) {
			return Value{}, fmt.Errorf("call to %s: missing argument %d", fn.Name, i)
		}
		sc.vars[p.Name] = args[i]
	}
	st := &execState{}
	if err := in.execStmt(sc, fn.Body, st); err != nil {
		return Value{}, err
	}
	return st.retVal, nil
}

func (in *Interp) execStmt(sc *scope, s cast.Stmt, st *execState) error {
	if err := in.step(); err != nil {
		return err
	}
	switch x := s.(type) {
	case nil:
		return nil
	case *cast.Compound:
		inner := newScope(sc)
		for _, it := range x.Items {
			if err := in.execStmt(inner, it, st); err != nil {
				return err
			}
			if st.sig != sigNone {
				return nil
			}
		}
		return nil
	case *cast.ExprStmt:
		_, err := in.eval(sc, x.X)
		return err
	case *cast.DeclStmt:
		for _, d := range x.Decls {
			if err := in.declare(sc, d); err != nil {
				return err
			}
		}
		return nil
	case *cast.If:
		c, err := in.eval(sc, x.Cond)
		if err != nil {
			return err
		}
		if c.Truthy() {
			return in.execStmt(sc, x.Then, st)
		}
		if x.Else != nil {
			return in.execStmt(sc, x.Else, st)
		}
		return nil
	case *cast.For:
		return in.execFor(sc, x, st)
	case *cast.While:
		for {
			if err := in.step(); err != nil {
				return err
			}
			c, err := in.eval(sc, x.Cond)
			if err != nil {
				return err
			}
			if !c.Truthy() {
				return nil
			}
			if err := in.execStmt(sc, x.Body, st); err != nil {
				return err
			}
			if st.sig == sigBreak {
				st.sig = sigNone
				return nil
			}
			if st.sig == sigContinue {
				st.sig = sigNone
			}
			if st.sig == sigReturn {
				return nil
			}
		}
	case *cast.DoWhile:
		for {
			if err := in.step(); err != nil {
				return err
			}
			if err := in.execStmt(sc, x.Body, st); err != nil {
				return err
			}
			if st.sig == sigBreak {
				st.sig = sigNone
				return nil
			}
			if st.sig == sigContinue {
				st.sig = sigNone
			}
			if st.sig == sigReturn {
				return nil
			}
			c, err := in.eval(sc, x.Cond)
			if err != nil {
				return err
			}
			if !c.Truthy() {
				return nil
			}
		}
	case *cast.Return:
		if x.X != nil {
			v, err := in.eval(sc, x.X)
			if err != nil {
				return err
			}
			st.retVal = v
		}
		st.sig = sigReturn
		return nil
	case *cast.Break:
		st.sig = sigBreak
		return nil
	case *cast.Continue:
		st.sig = sigContinue
		return nil
	case *cast.Empty, *cast.PragmaStmt, *cast.Label:
		return nil
	case *cast.Switch:
		return in.execSwitch(sc, x, st)
	case *cast.Goto:
		return &ErrUnsupported{What: "goto"}
	default:
		return &ErrUnsupported{What: fmt.Sprintf("statement %T", s)}
	}
}

func (in *Interp) execFor(sc *scope, f *cast.For, st *execState) error {
	inner := newScope(sc)
	if f.Init != nil {
		if err := in.execStmt(inner, f.Init, st); err != nil {
			return err
		}
	}
	lt := in.loopTrace(f)
	if lt != nil && lt.WatchNames != nil && lt.Watched == nil {
		lt.Watched = map[string]Addr{}
		for _, name := range lt.WatchNames {
			if b, ok := inner.lookup(name); ok {
				if b.cell != nil {
					lt.Watched[name] = Addr{Obj: b.cell.id, Elem: ScalarElem}
				} else if b.arr != nil {
					lt.Watched[name] = Addr{Obj: b.arr.id, Elem: WholeArrayElem}
				}
			}
		}
	}
	if lt != nil && len(lt.CaptureNames) > 0 {
		// Snapshot on every exit path — normal termination, break, return,
		// even an error — so the validator always sees the final state the
		// loop left behind.
		defer lt.captureNow(inner)
	}
	if lt != nil && lt.Reverse {
		return in.execForReversed(lt, inner, f, st)
	}
	iterCount := 0
	for {
		if err := in.step(); err != nil {
			return err
		}
		if f.Cond != nil {
			c, err := in.eval(inner, f.Cond)
			if err != nil {
				return err
			}
			if !c.Truthy() {
				break
			}
		}
		if lt != nil {
			in.enterBody(lt, iterCount)
		}
		err := in.execStmt(inner, f.Body, st)
		if lt != nil {
			in.leaveBody(lt)
		}
		if err != nil {
			return err
		}
		if st.sig == sigBreak {
			st.sig = sigNone
			return nil
		}
		if st.sig == sigContinue {
			st.sig = sigNone
		}
		if st.sig == sigReturn {
			return nil
		}
		if f.Post != nil {
			if lt != nil {
				// the post expression belongs to the closing iteration
				in.enterBody(lt, lt.iter)
			}
			_, err := in.eval(inner, f.Post)
			if lt != nil {
				in.leaveBody(lt)
			}
			if err != nil {
				return err
			}
		}
		iterCount++
	}
	return nil
}

func (in *Interp) execSwitch(sc *scope, sw *cast.Switch, st *execState) error {
	cond, err := in.eval(sc, sw.Cond)
	if err != nil {
		return err
	}
	body, ok := sw.Body.(*cast.Compound)
	if !ok {
		return &ErrUnsupported{What: "non-compound switch body"}
	}
	inner := newScope(sc)
	matched := false
	defaultIdx := -1
	for idx, it := range body.Items {
		if c, isCase := it.(*cast.Case); isCase {
			if matched {
				continue
			}
			if c.Val == nil {
				defaultIdx = idx
				continue
			}
			v, err := in.eval(inner, c.Val)
			if err != nil {
				return err
			}
			if v.AsInt() == cond.AsInt() {
				matched = true
			}
			continue
		}
		if matched {
			if err := in.execStmt(inner, it, st); err != nil {
				return err
			}
			if st.sig == sigBreak {
				st.sig = sigNone
				return nil
			}
			if st.sig != sigNone {
				return nil
			}
		}
	}
	if !matched && defaultIdx >= 0 {
		for _, it := range body.Items[defaultIdx+1:] {
			if _, isCase := it.(*cast.Case); isCase {
				continue
			}
			if err := in.execStmt(inner, it, st); err != nil {
				return err
			}
			if st.sig == sigBreak {
				st.sig = sigNone
				return nil
			}
			if st.sig != sigNone {
				return nil
			}
		}
	}
	return nil
}
