// Package flowcheck is the shared control-flow engine behind the seqlockpair
// and pinbalance analyzers.
//
// It abstract-interprets a function body over sets of small states: per
// bracket pair a nesting depth (seqlock write brackets, shard write locks)
// and per pin variable whether it is held. Deferred closes and releases are
// tracked as registered, returns transfer pin ownership to the caller, and
// explicit panic statements are exits on which only deferred cleanup counts.
//
// The engine is deliberately conservative in the quiet direction: functions
// containing goto, and states a tracked value escapes from (stored, passed to
// an unknown call, captured by a non-defer closure), drop their obligations
// instead of guessing — a missed report is recoverable by the runtime tests,
// a false positive would train people to sprinkle //nolint.
package flowcheck

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"repro/internal/analysis"
)

// PairSpec is one open/close call pair matched by base name (method or
// function identifier).
type PairSpec struct {
	Name  string // label used in diagnostics, e.g. "BeginWrite/EndWrite"
	Open  string
	Close string
}

// UnderOpenSpec requires a call to happen only while a pair is open.
type UnderOpenSpec struct {
	Call     string // call base name
	RecvType string // optional receiver named-type base name ("Tree"); "" = any
	Pair     string // PairSpec.Name that must be open
}

// Config selects what the engine tracks.
type Config struct {
	Pairs     []PairSpec
	UnderOpen []UnderOpenSpec

	PinFuncs     []string // calls returning a pin (Pin)
	ReleaseFuncs []string // method names releasing a pin (Unpin)

	// BodiesUnder names combinators that own a pair and run the func
	// literals passed to them inside it (call base name → PairSpec.Name,
	// e.g. "shardWrite"): such a literal is checked starting with the pair
	// open and is expected to leave it open.
	BodiesUnder map[string]string
}

// Check runs the engine over every function in the pass.
func (cfg *Config) Check(pass *analysis.Pass) {
	c := &checker{pass: pass, cfg: cfg, reported: make(map[string]bool)}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			c.checkFunc(fd.Body, -1)
			// Function literals are separate scopes with their own
			// obligations (pins taken inside a closure must be released
			// inside it unless they escape). The walk is pre-order, so a
			// combinator call is seen before the literals passed to it.
			under := map[*ast.FuncLit]int{}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch x := n.(type) {
				case *ast.CallExpr:
					if pair, ok := cfg.BodiesUnder[callName(x)]; ok {
						for _, a := range x.Args {
							if lit, ok := a.(*ast.FuncLit); ok {
								under[lit] = c.pairIndex(pair)
							}
						}
					}
				case *ast.FuncLit:
					open, ok := under[x]
					if !ok {
						open = -1
					}
					c.checkFunc(x.Body, open)
				}
				return true
			})
		}
	}
}

// pinInfo is a held pin variable's acquisition site.
type pinInfo struct {
	site token.Pos
	src  string // acquiring call name, for diagnostics
}

// state is one abstract execution state. Maps are copy-on-write via clone.
type state struct {
	depth    []int8 // per cfg.Pairs index
	openPos  []token.Pos
	pins     map[*types.Var]pinInfo
	defClose []int8              // deferred closes per pair
	defPins  map[*types.Var]bool // vars with a deferred release registered
}

func (s *state) clone() *state {
	ns := &state{
		depth:    append([]int8(nil), s.depth...),
		openPos:  append([]token.Pos(nil), s.openPos...),
		defClose: append([]int8(nil), s.defClose...),
		pins:     make(map[*types.Var]pinInfo, len(s.pins)),
		defPins:  make(map[*types.Var]bool, len(s.defPins)),
	}
	for k, v := range s.pins {
		ns.pins[k] = v
	}
	for k := range s.defPins {
		ns.defPins[k] = true
	}
	return ns
}

// key returns a canonical encoding for state-set deduplication.
func (s *state) key() string {
	var b strings.Builder
	for i, d := range s.depth {
		fmt.Fprintf(&b, "p%d=%d@%d;", i, d, s.openPos[i])
	}
	for i, d := range s.defClose {
		fmt.Fprintf(&b, "dc%d=%d;", i, d)
	}
	vars := make([]*types.Var, 0, len(s.pins))
	for v := range s.pins {
		vars = append(vars, v)
	}
	sort.Slice(vars, func(i, j int) bool { return vars[i].Pos() < vars[j].Pos() })
	for _, v := range vars {
		pi := s.pins[v]
		fmt.Fprintf(&b, "v%d@%d;", v.Pos(), pi.site)
	}
	dvars := make([]*types.Var, 0, len(s.defPins))
	for v := range s.defPins {
		dvars = append(dvars, v)
	}
	sort.Slice(dvars, func(i, j int) bool { return dvars[i].Pos() < dvars[j].Pos() })
	for _, v := range dvars {
		fmt.Fprintf(&b, "d%d;", v.Pos())
	}
	return b.String()
}

// stateSet is a deduplicated set of abstract states.
type stateSet struct {
	list []*state
	keys map[string]bool
}

func newStateSet(sts ...*state) *stateSet {
	ss := &stateSet{keys: make(map[string]bool)}
	for _, s := range sts {
		ss.add(s)
	}
	return ss
}

func (ss *stateSet) add(s *state) bool {
	if s == nil {
		return false
	}
	k := s.key()
	if ss.keys[k] {
		return false
	}
	ss.keys[k] = true
	ss.list = append(ss.list, s)
	return true
}

func (ss *stateSet) addAll(other *stateSet) bool {
	changed := false
	for _, s := range other.list {
		if ss.add(s) {
			changed = true
		}
	}
	return changed
}

func (ss *stateSet) empty() bool { return len(ss.list) == 0 }

// maxStates bounds the abstract state explosion; past it the engine gives up
// on the function (silently — conservative in the no-false-positive sense).
const maxStates = 128

type bailOut struct{}

type checker struct {
	pass     *analysis.Pass
	cfg      *Config
	reported map[string]bool
}

func (c *checker) reportOnce(pos token.Pos, format string, args ...interface{}) {
	msg := fmt.Sprintf(format, args...)
	key := fmt.Sprintf("%d:%s", pos, msg)
	if c.reported[key] {
		return
	}
	c.reported[key] = true
	c.pass.Reportf(pos, "%s", msg)
}

// loopCtx accumulates break/continue states for one enclosing loop or
// switch.
type loopCtx struct {
	label     string
	isLoop    bool // continue targets loops only
	breaks    *stateSet
	continues *stateSet
}

type funcChecker struct {
	*checker
	loops []*loopCtx
	base  []int8 // per-pair depth the function is entered with and must exit at
}

// checkFunc interprets one function body. open >= 0 is the index of a pair
// the body is entered under (a literal passed to a Config.BodiesUnder
// combinator); -1 enters with everything closed.
func (c *checker) checkFunc(body *ast.BlockStmt, open int) {
	if hasGoto(body) {
		return
	}
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(bailOut); !ok {
				panic(r)
			}
		}
	}()
	fc := &funcChecker{checker: c, base: make([]int8, len(c.cfg.Pairs))}
	if open >= 0 {
		fc.base[open] = 1
	}
	init := &state{
		depth:    append([]int8(nil), fc.base...),
		openPos:  make([]token.Pos, len(c.cfg.Pairs)),
		defClose: make([]int8, len(c.cfg.Pairs)),
		pins:     map[*types.Var]pinInfo{},
		defPins:  map[*types.Var]bool{},
	}
	out := fc.execBlock(body, newStateSet(init))
	// Falling off the end of the body is an implicit return.
	for _, s := range out.list {
		fc.checkExit(s, body.End(), nil, false)
	}
}

func hasGoto(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if br, ok := n.(*ast.BranchStmt); ok && br.Tok == token.GOTO {
			found = true
		}
		return !found
	})
	return found
}
