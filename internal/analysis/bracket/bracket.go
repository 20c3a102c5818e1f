// Package bracket checks where the store's publication protocol calls may
// appear, over non-test files. The protocol is written once, in shardWrite
// and shardRead (hyperion/lockfree.go), so:
//
//  1. Tree.BeginWrite/EndWrite may be called only inside shardWrite;
//  2. Domain.Pin may be called only inside shardRead or shardWrite;
//  3. in a package that declares shardWrite, the tree mutators, the WAL
//     enqueues and every `//hyperion:inbracket` function may be called only
//     lexically inside a function literal passed directly to shardWrite, or
//     inside an `//hyperion:inbracket` function. A literal nested in such a
//     body, and a go statement's call, start outside again (they can run
//     after the bracket closes); a guarded function may not be taken as a
//     value.
//
// That the combinators pair what they open is checked at run time by the
// tests that drive them. See DESIGN.md "Static analysis & invariant
// enforcement".
package bracket

import (
	"go/ast"
	"go/types"
	"slices"
	"strings"

	"repro/internal/analysis"
)

// Analyzer is the bracket entry point.
var Analyzer = &analysis.Analyzer{
	Name: "bracket",
	Doc:  "check that BeginWrite/EndWrite and Pin appear only in shardWrite/shardRead, and that tree mutators, WAL enqueues and //hyperion:inbracket functions run only inside bodies passed to shardWrite",
	Run:  run,
}

const combinator = "shardWrite"

// homes maps each protocol primitive to the functions that may call it.
var homes = map[string][]string{
	"Tree.BeginWrite": {combinator},
	"Tree.EndWrite":   {combinator},
	"Domain.Pin":      {"shardRead", combinator},
}

// guarded holds the calls rule 3 confines to shardWrite bodies, besides the
// //hyperion:inbracket functions.
var guarded = map[string]bool{
	"Tree.Put": true, "Tree.PutKey": true, "Tree.Delete": true,
	"Tree.BulkLoad": true, "Tree.BulkLoadMixed": true, "Tree.Clear": true,
	"Store.walEnqueueOp": true, "Store.walEnqueueBatch": true, "Store.walEnqueuePairs": true,
}

type checker struct {
	pass      *analysis.Pass
	rule3     bool                  // the package declares shardWrite
	inbracket map[types.Object]bool // //hyperion:inbracket functions
	called    map[*ast.Ident]bool   // identifiers in callee position
	fn        string                // enclosing top-level function
}

func run(pass *analysis.Pass) (interface{}, error) {
	c := &checker{pass: pass, inbracket: map[types.Object]bool{}, called: map[*ast.Ident]bool{}}
	var decls []*ast.FuncDecl
	for _, f := range pass.Files {
		if strings.HasSuffix(pass.Fset.Position(f.Pos()).Filename, "_test.go") {
			continue
		}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			decls = append(decls, fd)
			c.rule3 = c.rule3 || fd.Name.Name == combinator
			if inbracket(fd.Doc) {
				c.inbracket[pass.TypesInfo.Defs[fd.Name]] = true
			}
		}
	}
	for _, fd := range decls {
		c.fn = fd.Name.Name
		c.walk(fd.Body, c.inbracket[pass.TypesInfo.Defs[fd.Name]])
	}
	return nil, nil
}

// inbracket reports whether a declaration's doc carries the
// //hyperion:inbracket annotation.
func inbracket(doc *ast.CommentGroup) bool {
	return doc != nil && slices.ContainsFunc(doc.List, func(c *ast.Comment) bool { return c.Text == "//hyperion:inbracket" })
}

// walk checks every use under n; inside says whether n runs within an open
// shardWrite bracket.
func (c *checker) walk(n ast.Node, inside bool) {
	ast.Inspect(n, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			c.walk(x.Body, false)
			return false
		case *ast.GoStmt:
			c.walk(x.Call, false)
			return false
		case *ast.CallExpr:
			fun := ast.Unparen(x.Fun)
			if sel, ok := fun.(*ast.SelectorExpr); ok {
				fun = sel.Sel
			}
			id, _ := fun.(*ast.Ident)
			if id != nil {
				c.called[id] = true
			}
			if id == nil || id.Name != combinator {
				return true
			}
			c.walk(x.Fun, inside)
			for _, arg := range x.Args {
				if lit, ok := arg.(*ast.FuncLit); ok {
					c.walk(lit.Body, true)
				} else {
					c.walk(arg, inside)
				}
			}
			return false
		case *ast.Ident:
			c.use(x, inside)
		}
		return true
	})
}

// use applies the three rules to one identifier.
func (c *checker) use(id *ast.Ident, inside bool) {
	fn, ok := c.pass.TypesInfo.Uses[id].(*types.Func)
	if !ok {
		return
	}
	name := qualified(fn)
	if allowed, ok := homes[name]; ok {
		if !slices.Contains(allowed, c.fn) {
			c.pass.Reportf(id.Pos(), "%s used outside %s", name, strings.Join(allowed, "/"))
		}
		return
	}
	if !c.rule3 || !guarded[name] && !c.inbracket[fn] {
		return
	}
	switch {
	case !c.called[id]:
		c.pass.Reportf(id.Pos(), "%s taken as a value: it could run outside a %s body", name, combinator)
	case !inside:
		c.pass.Reportf(id.Pos(), "%s called outside a %s body", name, combinator)
	}
}

// qualified names fn as Recv.Name for methods ("Tree.Put") and Name for
// plain functions.
func qualified(fn *types.Func) string {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return fn.Name()
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name() + "." + fn.Name()
	}
	return fn.Name()
}
