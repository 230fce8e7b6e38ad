package cinterp

import "graph2par/internal/cast"

// Capture is the final value of one captured variable at traced-loop
// exit: a scalar's value, or a dense copy of all of an array's elements.
type Capture struct {
	Scalar *Value
	Array  []Value
}

// captureNow snapshots every CaptureNames binding visible at the traced
// loop's scope into Captured.
func (lt *LoopTrace) captureNow(sc *scope) {
	lt.Captured = map[string]Capture{}
	for _, name := range lt.CaptureNames {
		b, ok := sc.lookup(name)
		if !ok {
			continue
		}
		switch {
		case b.cell != nil:
			v := b.cell.val
			lt.Captured[name] = Capture{Scalar: &v}
		case b.arr != nil:
			lt.Captured[name] = Capture{Array: b.arr.values()}
		}
	}
}

// execForReversed runs the traced loop back to front. Phase one
// simulates the induction-variable sequence by evaluating only the
// condition and post expression — for the canonical loops the rewriter
// feeds it, those touch nothing but the induction variable. Phase two
// replays the recorded values last to first, executing the body once per
// value. Early exits (break, return) cannot be replayed out of order and
// surface as ErrUnsupported; continue only ends the current iteration.
func (in *Interp) execForReversed(lt *LoopTrace, inner *scope, f *cast.For, st *execState) error {
	if f.Cond == nil || f.Post == nil {
		return &ErrUnsupported{What: "reversed execution needs a loop condition and post expression"}
	}
	b, ok := inner.lookup(lt.ReverseIndVar)
	if !ok || b.cell == nil {
		return &ErrUnsupported{What: "reversed execution needs a scalar induction variable"}
	}
	var ivs []Value
	for {
		if err := in.step(); err != nil {
			return err
		}
		c, err := in.eval(inner, f.Cond)
		if err != nil {
			return err
		}
		if !c.Truthy() {
			break
		}
		ivs = append(ivs, b.cell.val)
		if _, err := in.eval(inner, f.Post); err != nil {
			return err
		}
	}
	exit := b.cell.val
	for k := len(ivs) - 1; k >= 0; k-- {
		if err := in.step(); err != nil {
			return err
		}
		b.cell.val = ivs[k]
		in.enterBody(lt, k)
		err := in.execStmt(inner, f.Body, st)
		in.leaveBody(lt)
		if err != nil {
			return err
		}
		if st.sig != sigNone {
			sig := st.sig
			st.sig = sigNone
			if sig == sigContinue {
				continue
			}
			return &ErrUnsupported{What: "early exit during reversed execution"}
		}
	}
	b.cell.val = exit
	return nil
}
