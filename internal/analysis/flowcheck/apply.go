package flowcheck

import (
	"go/ast"
	"go/types"
)

// applyExpr applies the call effects and escape rules of one expression to
// every state in the set.
func (fc *funcChecker) applyExpr(e ast.Expr, in *stateSet) *stateSet {
	out := newStateSet()
	for _, st := range in.list {
		ns := st.clone()
		fc.evalExpr(e, ns, false)
		out.add(ns)
	}
	return out
}

// evalExpr walks one expression in evaluation order, mutating st in place.
// topDiscard is true when e is the entire expression of an ExprStmt, where a
// pin-returning call means the pin is unreleasable.
func (fc *funcChecker) evalExpr(e ast.Expr, st *state, topDiscard bool) {
	switch x := e.(type) {
	case nil:

	case *ast.CallExpr:
		fc.evalCall(x, st, topDiscard)

	case *ast.Ident:
		fc.escape(st, x)

	case *ast.SelectorExpr:
		// Attribute access on a tracked pin (g.Epoch(), ps.state) neither
		// releases nor escapes it.
		if id, ok := x.X.(*ast.Ident); ok {
			if fc.trackedVar(st, id) == nil {
				fc.escape(st, id)
			}
			return
		}
		fc.evalExpr(x.X, st, false)

	case *ast.BinaryExpr:
		fc.evalExpr(x.X, st, false)
		fc.evalExpr(x.Y, st, false)

	case *ast.ParenExpr:
		fc.evalExpr(x.X, st, topDiscard)

	case *ast.UnaryExpr:
		fc.evalExpr(x.X, st, false)

	case *ast.StarExpr:
		fc.evalExpr(x.X, st, false)

	case *ast.IndexExpr:
		fc.evalExpr(x.X, st, false)
		fc.evalExpr(x.Index, st, false)

	case *ast.IndexListExpr:
		fc.evalExpr(x.X, st, false)
		for _, i := range x.Indices {
			fc.evalExpr(i, st, false)
		}

	case *ast.SliceExpr:
		fc.evalExpr(x.X, st, false)
		fc.evalExpr(x.Low, st, false)
		fc.evalExpr(x.High, st, false)
		fc.evalExpr(x.Max, st, false)

	case *ast.TypeAssertExpr:
		fc.evalExpr(x.X, st, false)

	case *ast.CompositeLit:
		for _, el := range x.Elts {
			fc.evalExpr(el, st, false)
		}

	case *ast.KeyValueExpr:
		fc.evalExpr(x.Key, st, false)
		fc.evalExpr(x.Value, st, false)

	case *ast.FuncLit:
		// A non-deferred closure capturing a tracked value takes the
		// obligation out of this function's hands.
		fc.escapeCaptured(st, x)

	default:
		// Literals, types: no effects.
	}
}

// evalCall applies one call's effects: argument escapes, pair open/close,
// pin acquisition/release, under-open requirements.
func (fc *funcChecker) evalCall(call *ast.CallExpr, st *state, topDiscard bool) {
	// Evaluate arguments first (inner calls fire before the outer one).
	for _, a := range call.Args {
		fc.evalExpr(a, st, false)
	}

	if lit, ok := call.Fun.(*ast.FuncLit); ok {
		fc.escapeCaptured(st, lit)
		return
	}

	name := callName(call)
	if name == "" {
		fc.evalExpr(call.Fun, st, false)
		return
	}

	// Release call on a tracked receiver consumes the pin.
	if contains(fc.cfg.ReleaseFuncs, name) {
		if v := receiverVar(fc.pass.TypesInfo, call); v != nil {
			if _, ok := st.pins[v]; ok {
				delete(st.pins, v)
				return
			}
		}
	}

	// Method receiver expression (sh.tree.BeginWrite(): "sh.tree" part).
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if id, ok := sel.X.(*ast.Ident); ok {
			if fc.trackedVar(st, id) != nil {
				// Non-release method on a pin: a read, keeps the pin.
			}
		} else {
			fc.evalExpr(sel.X, st, false)
		}
	}

	for i, p := range fc.cfg.Pairs {
		switch name {
		case p.Open:
			if st.depth[i] >= 8 {
				panic(bailOut{})
			}
			st.depth[i]++
			st.openPos[i] = call.Pos()
		case p.Close:
			if st.depth[i] > 0 {
				st.depth[i]--
			} else if st.defClose[i] == 0 {
				fc.reportOnce(call.Pos(), "%s: %s without a preceding %s on this path", p.Name, p.Close, p.Open)
			}
		}
	}

	for _, uo := range fc.cfg.UnderOpen {
		if name != uo.Call {
			continue
		}
		if uo.RecvType != "" && receiverTypeName(fc.pass.TypesInfo, call) != uo.RecvType {
			continue
		}
		// Any open bracket counts, whichever pair the spec names.
		open := false
		for _, d := range st.depth {
			if d > 0 {
				open = true
				break
			}
		}
		if idx := fc.pairIndex(uo.Pair); idx >= 0 && !open {
			fc.reportOnce(call.Pos(), "%s called outside an open %s bracket", name, fc.cfg.Pairs[idx].Name)
		}
	}

	if topDiscard && contains(fc.cfg.PinFuncs, name) {
		fc.reportOnce(call.Pos(), "result of %s discarded: the pin can never be released", name)
	}
}

func (c *checker) pairIndex(name string) int {
	for i, p := range c.cfg.Pairs {
		if p.Name == name {
			return i
		}
	}
	return -1
}

// trackedVar returns the pin variable behind id, or nil.
func (fc *funcChecker) trackedVar(st *state, id *ast.Ident) *types.Var {
	v, ok := fc.pass.TypesInfo.Uses[id].(*types.Var)
	if !ok {
		return nil
	}
	if _, tracked := st.pins[v]; tracked {
		return v
	}
	return nil
}

// escape drops the obligation for a tracked value whose reference leaves the
// engine's sight (assigned elsewhere, passed to an unknown call, captured).
func (fc *funcChecker) escape(st *state, id *ast.Ident) {
	if v := fc.trackedVar(st, id); v != nil {
		delete(st.pins, v)
	}
}

// escapeCaptured escapes every tracked value a closure body references.
func (fc *funcChecker) escapeCaptured(st *state, lit *ast.FuncLit) {
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			fc.escape(st, id)
		}
		return true
	})
}

// execAssign handles pin bindings and overwrite leaks.
func (fc *funcChecker) execAssign(s *ast.AssignStmt, in *stateSet) *stateSet {
	// The simple one-to-one form can bind pins; everything else is generic
	// expression evaluation.
	simple := len(s.Lhs) == len(s.Rhs)
	out := newStateSet()
	for _, prev := range in.list {
		st := prev.clone()
		for i, rhs := range s.Rhs {
			var lhsID *ast.Ident
			if simple {
				lhsID, _ = s.Lhs[i].(*ast.Ident)
			}
			if call, ok := rhs.(*ast.CallExpr); ok && lhsID != nil && lhsID.Name != "_" {
				name := callName(call)
				if contains(fc.cfg.PinFuncs, name) {
					fc.evalCall(call, st, false)
					v := assignedVar(fc.pass.TypesInfo, lhsID)
					if v != nil {
						if old, held := st.pins[v]; held && !st.defPins[v] {
							fc.reportOnce(old.site, "pin acquired by %s is overwritten before it is released", old.src)
						}
						st.pins[v] = pinInfo{site: call.Pos(), src: name}
					}
					continue
				}
			}
			fc.evalExpr(rhs, st, false)
			if lhsID != nil {
				if v := assignedVar(fc.pass.TypesInfo, lhsID); v != nil {
					if old, held := st.pins[v]; held && !st.defPins[v] {
						fc.reportOnce(old.site, "pin acquired by %s is overwritten before it is released", old.src)
					}
					delete(st.pins, v)
				}
			}
		}
		// Escapes via non-ident LHS targets (x.f = g, a[i] = g handled by
		// RHS evaluation above; LHS index expressions may carry calls).
		for _, lhs := range s.Lhs {
			if _, ok := lhs.(*ast.Ident); !ok {
				fc.evalExpr(lhs, st, false)
			}
		}
		out.add(st)
	}
	return out
}

func assignedVar(info *types.Info, id *ast.Ident) *types.Var {
	if v, ok := info.Defs[id].(*types.Var); ok {
		return v
	}
	if v, ok := info.Uses[id].(*types.Var); ok {
		return v
	}
	return nil
}

func callName(c *ast.CallExpr) string {
	switch f := c.Fun.(type) {
	case *ast.SelectorExpr:
		return f.Sel.Name
	case *ast.Ident:
		return f.Name
	}
	return ""
}

func receiverVar(info *types.Info, c *ast.CallExpr) *types.Var {
	sel, ok := c.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return nil
	}
	v, _ := info.Uses[id].(*types.Var)
	return v
}

// receiverTypeName returns the base name of the named type of a method
// call's receiver ("Tree" for sh.tree.Put), or "".
func receiverTypeName(info *types.Info, c *ast.CallExpr) string {
	sel, ok := c.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	tv, ok := info.Types[sel.X]
	if !ok {
		return ""
	}
	t := tv.Type
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}
