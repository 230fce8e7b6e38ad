// Package discopop reimplements the decision behaviour of DiscoPoP, the
// hybrid dynamic parallelism detector of the paper's evaluation. The real
// tool instruments LLVM IR and analyzes the memory-access trace of an
// actual execution; here the trace comes from the cinterp interpreter. The
// profile mirrored from the paper:
//
//   - needs to EXECUTE the program: only loops inside complete runnable
//     translation units are processable, under a step budget that stands in
//     for profiling cost (the paper reports 3.7% coverage on OMP_Serial).
//     Like the real tool's single instrumented execution, one run of main
//     profiles every for loop of the translation unit (AnalyzeFile);
//   - calls to external (non-instrumented) functions — including libm —
//     are opaque and force a conservative "not parallel" (Listing 1);
//     calls to functions defined in the same file are instrumented through
//     and fine (Listing 3);
//   - do-all detection: an address accessed in two different iterations
//     with at least one write is an inter-iteration dependence;
//   - reduction detection is pattern-based: only single-statement updates
//     (x += e, x = x op e, x++) count (the two-statement update of
//     Listing 4 is missed), and the update must execute exactly once per
//     iteration of the analyzed loop (so the outer loop of the nest in
//     Listing 5, whose counter is bumped many times per outer iteration,
//     is missed).
package discopop

import (
	"fmt"
	"sort"
	"sync"

	"graph2par/internal/cast"
	"graph2par/internal/cinterp"
	"graph2par/internal/depend"
	"graph2par/internal/slab"
	"graph2par/internal/tools"
)

// DiscoPoP is the dynamic analyzer.
type DiscoPoP struct {
	// MaxSteps is the interpreter step budget per profiling run (profiling
	// cost stand-in). Default 2,000,000. The loop is executed fully —
	// profiling cost is part of the tool's real profile, so long-running
	// programs genuinely blow the step budget.
	MaxSteps int
}

// New returns the tool with default budgets.
func New() *DiscoPoP { return &DiscoPoP{MaxSteps: 2_000_000} }

// Name implements tools.Tool.
func (d *DiscoPoP) Name() string { return "DiscoPoP" }

// addrAgg aggregates one traced address's access pattern online, as the
// interpreter streams accesses. The dependence scan below only ever needs
// (a) whether the address was written at all, (b) whether it was touched in
// more than one iteration, and — for reduction candidates only — (c) the
// exact per-iteration write count over every touched iteration. Folding
// accesses into this struct as they arrive replaces the old
// record-per-access trace (a map of growing slices that dominated the
// allocation profile of every DiscoPoP run) without changing a single
// verdict: iteration indices are keyed exactly, so re-executions of the
// traced loop merge per-iteration counts just as the record scan did.
type addrAgg struct {
	firstIter int
	multiIter bool
	anyWrite  bool
	// iterWrites maps iteration → write count, with an entry for every
	// touched iteration (reads insert a zero). Only allocated for the
	// (few, watched) reduction-candidate scalars; every other address gets
	// by on the three flags above.
	iterWrites map[int]int
}

// aggState is the pooled per-run aggregation state: the address map plus a
// chunked slab the addrAgg entries come from, so a traced loop allocates
// nothing per address in steady state and the hot trace callback pays one
// map read per access (pointer entries mutate in place — no write-back).
// Slab chunks are stable (never reallocated), so the map's pointers stay
// valid for the run.
type aggState struct {
	m    map[cinterp.Addr]*addrAgg
	aggs slab.Slab[addrAgg]
}

//graph2lint:noalloc
func (st *aggState) alloc() *addrAgg { return st.aggs.Get() }

func (st *aggState) reset() {
	clear(st.m)
	st.aggs.Reset()
}

// aggPool recycles aggregation state across runs (and across the engine's
// worker goroutines); a run checks out one state per traced loop.
var aggPool = sync.Pool{New: func() any {
	return &aggState{m: map[cinterp.Addr]*addrAgg{}}
}}

// Analyze implements tools.Tool: the one-loop case of AnalyzeFile.
func (d *DiscoPoP) Analyze(s tools.Sample) tools.Verdict {
	if !s.Runnable || s.File == nil {
		return reject(notRunnable)
	}
	return d.AnalyzeFile(s.File, []cast.Stmt{s.Loop})[0]
}

// AnalyzeFile profiles the runnable program file with one execution of
// main that traces every for loop in loops, and returns one verdict per
// loop, in order. Each verdict equals Analyze on that loop alone: tracing
// only observes the run, so the execution — and with it every step count,
// object ID and error — does not depend on which loops are traced. A nil
// file yields the not-runnable verdict for every loop.
func (d *DiscoPoP) AnalyzeFile(file *cast.File, loops []cast.Stmt) []tools.Verdict {
	out := make([]tools.Verdict, len(loops))
	if file == nil {
		for i := range out {
			out[i] = reject(notRunnable)
		}
		return out
	}
	in := cinterp.New(file)
	in.MaxSteps = d.MaxSteps
	probes := make([]*probe, len(loops))
	byLoop := map[*cast.For]*probe{}
	for i, l := range loops {
		loop, ok := l.(*cast.For)
		if !ok {
			out[i] = reject("DiscoPoP: loop-level analysis targets for-loops")
			continue
		}
		if p := byLoop[loop]; p != nil {
			probes[i] = p
			continue
		}
		p := newProbe(in.TraceLoop(loop))
		defer p.release()
		byLoop[loop] = p
		probes[i] = p
	}
	if len(byLoop) == 0 {
		return out
	}

	// Identify defined functions to separate instrumented from opaque calls.
	defined := map[string]bool{}
	for _, fn := range file.Funcs {
		if fn.Body != nil {
			defined[fn.Name] = true
		}
	}
	_, runErr := in.Run()
	for i, p := range probes {
		switch {
		case p == nil:
		case runErr != nil:
			out[i] = reject(fmt.Sprintf("DiscoPoP: program not profilable (%v)", runErr))
		default:
			out[i] = p.verdict(defined)
		}
	}
	return out
}

const notRunnable = "DiscoPoP: requires a runnable program for profiling"

// reject is a verdict with no detection, explained by reason.
func reject(reason string) tools.Verdict {
	return tools.Verdict{Reductions: map[string]string{}, Reason: reason}
}

// probe is one traced loop's instrumentation: its reduction candidates and
// the access aggregate its trace callback folds into.
type probe struct {
	lt     *cinterp.LoopTrace
	info   depend.LoopInfo
	redOps map[string]string
	st     *aggState

	maxIter int
	// The watch addresses resolve when the traced loop is first entered —
	// before the first Trace callback — so the callback resolves them
	// lazily and skips both the loop-control address (discarded by the
	// scan anyway) and per-iteration bookkeeping for non-candidates.
	resolved   bool
	traceIV    cinterp.Addr
	traceHasIV bool
	isRedAddr  map[cinterp.Addr]bool
}

func newProbe(lt *cinterp.LoopTrace) *probe {
	p := &probe{
		lt:        lt,
		info:      depend.ExtractLoop(lt.Loop),
		redOps:    map[string]string{},
		st:        aggPool.Get().(*aggState),
		maxIter:   -1,
		isRedAddr: map[cinterp.Addr]bool{},
	}
	// Syntactic single-statement reduction candidates (DiscoPoP's pattern
	// matcher); multi-statement updates are deliberately not candidates.
	for _, r := range depend.FindReductions(lt.Loop.Body, map[string]bool{p.info.IndVar: true}) {
		if !r.MultiStatement {
			p.redOps[r.Var] = r.Op
		}
	}
	watch := []string{}
	if p.info.IndVar != "" {
		watch = append(watch, p.info.IndVar)
	}
	for name := range p.redOps {
		watch = append(watch, name)
	}
	sort.Strings(watch)
	lt.WatchNames = watch
	lt.Trace = p.trace
	return p
}

func (p *probe) release() {
	p.st.reset()
	aggPool.Put(p.st)
	p.st = nil
}

// trace folds one access into the aggregate.
func (p *probe) trace(a cinterp.Addr, w bool, iter int) {
	if !p.resolved {
		p.resolved = true
		if p.info.IndVar != "" {
			p.traceIV, p.traceHasIV = p.lt.Watched[p.info.IndVar]
		}
		for name := range p.redOps {
			if ad, ok := p.lt.Watched[name]; ok {
				p.isRedAddr[ad] = true
			}
		}
	}
	if iter > p.maxIter {
		p.maxIter = iter
	}
	if p.traceHasIV && a == p.traceIV {
		return // loop control, skipped by the dependence scan
	}
	agg := p.st.m
	g := agg[a]
	if g == nil {
		g = p.st.alloc()
		*g = addrAgg{firstIter: iter}
		if p.isRedAddr[a] {
			g.iterWrites = map[int]int{}
		}
		agg[a] = g
	}
	if iter != g.firstIter {
		g.multiIter = true
	}
	if w {
		g.anyWrite = true
	}
	if g.iterWrites != nil {
		if w {
			g.iterWrites[iter]++
		} else if _, ok := g.iterWrites[iter]; !ok {
			g.iterWrites[iter] = 0
		}
	}
}

// verdict scans the aggregated trace of a completed run.
func (p *probe) verdict(defined map[string]bool) tools.Verdict {
	loop, agg := p.lt.Loop, p.st.m
	v := tools.Verdict{Reductions: map[string]string{}}
	if p.maxIter < 1 {
		v.Reason = "DiscoPoP: instrumented loop executed fewer than 2 iterations"
		return v
	}
	v.Processable = true

	if depend.HasLoopExit(loop.Body) {
		v.Reason = "DiscoPoP: early exit violates the canonical worksharing form"
		return v
	}

	// Opaque external calls make the trace incomplete: conservative.
	if has, names := depend.HasCalls(loop.Body); has {
		for _, n := range names {
			if !defined[n] {
				v.Reason = fmt.Sprintf("DiscoPoP: call to non-instrumented function %q", n)
				return v
			}
		}
	}

	redAddr := map[cinterp.Addr]string{}
	for name := range p.redOps {
		if a, ok := p.lt.Watched[name]; ok {
			redAddr[a] = name
		}
	}

	// Dependence scan over the aggregated trace.
	addrs := make([]cinterp.Addr, 0, len(agg))
	for a := range agg {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool {
		if addrs[i].Obj != addrs[j].Obj {
			return addrs[i].Obj < addrs[j].Obj
		}
		return addrs[i].Elem < addrs[j].Elem
	})
	confirmedReds := map[string]string{}
	anyArrayWrite := false
	for _, a := range addrs {
		if a.IsArrayElem() && agg[a].anyWrite {
			anyArrayWrite = true
			break
		}
	}
	for _, a := range addrs {
		g := agg[a]
		if !g.anyWrite || !g.multiIter {
			continue // read-only or confined to one iteration
		}
		if name, isRed := redAddr[a]; isRed {
			oncePerIter := true
			for _, writes := range g.iterWrites {
				if writes != 1 {
					oncePerIter = false
					break
				}
			}
			if oncePerIter {
				confirmedReds[name] = p.redOps[name]
				continue
			}
			v.Reason = fmt.Sprintf("DiscoPoP: reduction candidate %q updated multiple times per iteration", name)
			return v
		}
		v.Reason = fmt.Sprintf("DiscoPoP: inter-iteration dependence on object %d", a.Obj)
		return v
	}

	// Template matching: DiscoPoP classifies a loop as do-all OR as a
	// reduction; a body that both reduces a scalar and writes arrays falls
	// outside both templates (the Listing 6 failure mode).
	if len(confirmedReds) > 0 && anyArrayWrite {
		v.Reason = "DiscoPoP: mixed reduction and array-write pattern matches neither template"
		return v
	}

	v.Parallel = true
	v.Reductions = confirmedReds
	if len(confirmedReds) > 0 {
		v.Reason = "DiscoPoP: reduction pattern"
	} else {
		v.Reason = "DiscoPoP: do-all pattern"
	}
	return v
}
