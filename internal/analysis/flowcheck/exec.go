package flowcheck

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// execBlock runs a statement list over a state set.
func (fc *funcChecker) execBlock(b *ast.BlockStmt, in *stateSet) *stateSet {
	cur := in
	for _, st := range b.List {
		cur = fc.execStmt(st, cur)
		if cur.empty() {
			break // everything returned/branched away: the rest is dead
		}
	}
	return cur
}

// execStmt dispatches one statement. It returns the fall-through states;
// states that return or branch are routed to their targets instead.
func (fc *funcChecker) execStmt(stmt ast.Stmt, in *stateSet) *stateSet {
	if in.empty() {
		return in
	}
	if len(in.list) > maxStates {
		panic(bailOut{})
	}
	switch s := stmt.(type) {
	case *ast.BlockStmt:
		return fc.execBlock(s, in)

	case *ast.ExprStmt:
		if isPanicCall(s.X) {
			out := fc.applyExpr(s.X, in)
			for _, st := range out.list {
				fc.checkExit(st, s.Pos(), nil, true)
			}
			return newStateSet()
		}
		if isTerminatingCall(fc.pass.TypesInfo, s.X) {
			// os.Exit / log.Fatal*: the process dies, obligations moot.
			return newStateSet()
		}
		// A statement-level expression discards its value: a pin-returning
		// call here can never be released.
		out := newStateSet()
		for _, st := range in.list {
			ns := st.clone()
			fc.evalExpr(s.X, ns, true)
			out.add(ns)
		}
		return out

	case *ast.AssignStmt:
		return fc.execAssign(s, in)

	case *ast.DeclStmt:
		// var declarations may carry initializer calls.
		out := in
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						out = fc.applyExpr(v, out)
					}
				}
			}
		}
		return out

	case *ast.IfStmt:
		out := in
		if s.Init != nil {
			out = fc.execStmt(s.Init, out)
		}
		out = fc.applyExpr(s.Cond, out)
		thenOut := fc.execStmt(s.Body, out)
		if s.Else != nil {
			thenOut.addAll(fc.execStmt(s.Else, out))
			return thenOut
		}
		thenOut.addAll(out)
		return thenOut

	case *ast.ForStmt:
		out := in
		if s.Init != nil {
			out = fc.execStmt(s.Init, out)
		}
		return fc.execLoop(out, s.Cond, s.Body, s.Post)

	case *ast.RangeStmt:
		out := fc.applyExpr(s.X, in)
		// Key/Value bindings of tracked values would alias; treat as
		// escapes via applyExpr on X above (range over pins never occurs).
		return fc.execLoop(out, nil, s.Body, nil)

	case *ast.SwitchStmt:
		out := in
		if s.Init != nil {
			out = fc.execStmt(s.Init, out)
		}
		if s.Tag != nil {
			out = fc.applyExpr(s.Tag, out)
		}
		return fc.execSwitch(stmt, s.Body, out)

	case *ast.TypeSwitchStmt:
		out := in
		if s.Init != nil {
			out = fc.execStmt(s.Init, out)
		}
		return fc.execSwitch(stmt, s.Body, out)

	case *ast.SelectStmt:
		return fc.execSwitch(stmt, s.Body, in)

	case *ast.ReturnStmt:
		out := in
		for _, r := range s.Results {
			out = fc.applyExpr(r, out)
		}
		returned := returnedVars(fc.pass.TypesInfo, s)
		for _, st := range out.list {
			fc.checkExit(st, s.Pos(), returned, false)
		}
		return newStateSet()

	case *ast.BranchStmt:
		fc.routeBranch(s, in)
		return newStateSet()

	case *ast.DeferStmt:
		return fc.execDefer(s, in)

	case *ast.GoStmt:
		// The goroutine body runs elsewhere: anything it captures escapes.
		return fc.applyExpr(s.Call, in)

	case *ast.LabeledStmt:
		return fc.execStmt(s.Stmt, in)

	case *ast.IncDecStmt:
		return fc.applyExpr(s.X, in)

	case *ast.SendStmt:
		out := fc.applyExpr(s.Chan, in)
		return fc.applyExpr(s.Value, out)

	case *ast.EmptyStmt:
		return in

	default:
		return in
	}
}

// execLoop interprets a loop to a state fixpoint.
func (fc *funcChecker) execLoop(head *stateSet, cond ast.Expr, body *ast.BlockStmt, post ast.Stmt) *stateSet {
	lc := &loopCtx{isLoop: true, breaks: newStateSet(), continues: newStateSet()}
	fc.loops = append(fc.loops, lc)
	defer func() { fc.loops = fc.loops[:len(fc.loops)-1] }()

	headSet := newStateSet()
	headSet.addAll(head)
	for iter := 0; iter < 16; iter++ {
		enter := headSet
		if cond != nil {
			enter = fc.applyExpr(cond, enter)
		}
		bodyOut := fc.execStmt(body, enter)
		bodyOut.addAll(lc.continues)
		lc.continues = newStateSet()
		if post != nil {
			bodyOut = fc.execStmt(post, bodyOut)
		}
		if !headSet.addAll(bodyOut) {
			break
		}
		if len(headSet.list) > maxStates {
			panic(bailOut{})
		}
	}
	exit := newStateSet()
	if cond != nil {
		exit.addAll(fc.applyExpr(cond, headSet))
	} else {
		// Range loops exit after exhaustion with the head states; a bare
		// `for {}` exits only via break, but letting head states flow to
		// the exit anyway is a harmless over-approximation here (the
		// checked protocols never hold a bracket open across a loop exit
		// they don't also close on).
		exit.addAll(headSet)
	}
	exit.addAll(lc.breaks)
	return exit
}

// execSwitch interprets switch/type-switch/select clause bodies.
func (fc *funcChecker) execSwitch(owner ast.Stmt, body *ast.BlockStmt, in *stateSet) *stateSet {
	lc := &loopCtx{breaks: newStateSet()}
	fc.loops = append(fc.loops, lc)
	defer func() { fc.loops = fc.loops[:len(fc.loops)-1] }()

	out := newStateSet()
	hasDefault := false
	for _, clause := range body.List {
		var stmts []ast.Stmt
		enter := in
		switch cl := clause.(type) {
		case *ast.CaseClause:
			if cl.List == nil {
				hasDefault = true
			}
			for _, e := range cl.List {
				enter = fc.applyExpr(e, enter)
			}
			stmts = cl.Body
		case *ast.CommClause:
			if cl.Comm == nil {
				hasDefault = true
			} else {
				enter = fc.execStmt(cl.Comm, enter)
			}
			stmts = cl.Body
		}
		cur := enter
		for _, st := range stmts {
			cur = fc.execStmt(st, cur)
			if cur.empty() {
				break
			}
		}
		// Fallthrough is conservative: clause exits union into the result;
		// an explicit fallthrough also reaches the next clause, which the
		// union already over-approximates.
		out.addAll(cur)
	}
	if !hasDefault {
		out.addAll(in)
	}
	out.addAll(lc.breaks)
	return out
}

// routeBranch delivers break/continue states to the nearest matching
// context. Labels route to the outermost context (sound over-approximation:
// the repo uses labeled break only to leave nested loops).
func (fc *funcChecker) routeBranch(s *ast.BranchStmt, in *stateSet) {
	switch s.Tok {
	case token.BREAK:
		for i := len(fc.loops) - 1; i >= 0; i-- {
			if s.Label == nil || i == 0 {
				fc.loops[i].breaks.addAll(in)
				return
			}
		}
	case token.CONTINUE:
		for i := len(fc.loops) - 1; i >= 0; i-- {
			if fc.loops[i].isLoop {
				if s.Label == nil || i == fc.outermostLoop() {
					fc.loops[i].continues.addAll(in)
					return
				}
			}
		}
	}
}

func (fc *funcChecker) outermostLoop() int {
	for i, lc := range fc.loops {
		if lc.isLoop {
			return i
		}
	}
	return -1
}

// execDefer registers deferred releases/closes.
func (fc *funcChecker) execDefer(s *ast.DeferStmt, in *stateSet) *stateSet {
	call := s.Call
	out := newStateSet()
	for _, st := range in.list {
		ns := st.clone()
		fc.registerDeferred(ns, call)
		out.add(ns)
	}
	return out
}

// registerDeferred scans one deferred call (possibly a closure) for release
// and close effects and records them in ns.
func (fc *funcChecker) registerDeferred(ns *state, call *ast.CallExpr) {
	record := func(c *ast.CallExpr) {
		name := callName(c)
		if name == "" {
			return
		}
		for i, p := range fc.cfg.Pairs {
			if name == p.Close {
				ns.defClose[i]++
			}
		}
		if contains(fc.cfg.ReleaseFuncs, name) {
			if v := receiverVar(fc.pass.TypesInfo, c); v != nil {
				ns.defPins[v] = true
			}
		}
	}
	if lit, ok := call.Fun.(*ast.FuncLit); ok {
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			if c, ok := n.(*ast.CallExpr); ok {
				record(c)
			}
			return true
		})
		return
	}
	record(call)
}

// checkExit validates one state at a function exit point. returned lists
// variables transferred to the caller; panicking exits accept only deferred
// cleanup.
func (fc *funcChecker) checkExit(st *state, pos token.Pos, returned map[*types.Var]bool, panicking bool) {
	for i, p := range fc.cfg.Pairs {
		eff := st.depth[i] - st.defClose[i] - fc.base[i]
		if eff > 0 {
			at := st.openPos[i]
			if at == token.NoPos {
				at = pos
			}
			if panicking {
				fc.reportOnce(at, "%s: bracket opened by %s is still open at panic and has no deferred %s", p.Name, p.Open, p.Close)
			} else {
				fc.reportOnce(at, "%s: %s is not matched by %s on every path to return", p.Name, p.Open, p.Close)
			}
		}
	}
	for v, pi := range st.pins {
		if st.defPins[v] {
			continue
		}
		if !panicking && returned[v] {
			continue // ownership transferred to the caller
		}
		what := "released"
		if panicking {
			fc.reportOnce(pi.site, "pin acquired by %s may still be held when this function panics; release it via defer", pi.src)
			continue
		}
		fc.reportOnce(pi.site, "pin acquired by %s is not %s on every path to return", pi.src, what)
	}
}

func returnedVars(info *types.Info, s *ast.ReturnStmt) map[*types.Var]bool {
	out := map[*types.Var]bool{}
	for _, r := range s.Results {
		if id, ok := r.(*ast.Ident); ok {
			if v, ok := info.Uses[id].(*types.Var); ok {
				out[v] = true
			}
		}
	}
	return out
}

func contains(list []string, s string) bool {
	for _, x := range list {
		if x == s {
			return true
		}
	}
	return false
}

func isPanicCall(e ast.Expr) bool {
	c, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := c.Fun.(*ast.Ident)
	return ok && id.Name == "panic"
}

// isTerminatingCall recognizes os.Exit and log.Fatal* — calls that never
// return, so exit obligations do not apply.
func isTerminatingCall(info *types.Info, e ast.Expr) bool {
	c, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := c.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	pkgID, ok := sel.X.(*ast.Ident)
	if !ok {
		return false
	}
	pkg, ok := info.Uses[pkgID].(*types.PkgName)
	if !ok {
		return false
	}
	switch pkg.Imported().Path() {
	case "os":
		return sel.Sel.Name == "Exit"
	case "log":
		return strings.HasPrefix(sel.Sel.Name, "Fatal")
	case "runtime":
		return sel.Sel.Name == "Goexit"
	}
	return false
}
