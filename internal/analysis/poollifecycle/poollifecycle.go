// Package poollifecycle enforces the checkout discipline of the pooled
// scratch buffers (internal/arena.Pool) with a path-sensitive dataflow
// analysis: every buffer obtained from a pool getter must be returned to the
// pool exactly once on every path out of the function, must not be used
// after it was returned, and must not escape the function's put discipline
// silently.
//
// Per tracked variable the analysis runs a may-lattice {live, released,
// deferred} over the function's CFG (package cfg), with function literals
// passed directly as call arguments spliced inline — so a buffer obtained
// inside an obs Timed closure and released by the enclosing function is
// still seen as balanced. It reports:
//
//   - a buffer live on some path reaching the function exit (leak),
//     reported at the get call;
//   - a put on a buffer already returned (or covered by a deferred put);
//   - any use of a buffer after it was returned on some path;
//   - a live buffer overwritten before being returned;
//   - escapes: returning the buffer, storing it into a field, element or
//     channel, embedding it in a composite literal, or capturing it in a
//     go statement — each hands ownership to code the intraprocedural
//     analysis cannot see;
//   - append on a pooled buffer (growth breaks size-class recycling;
//     subsumes the retired syntactic poolalias analyzer).
//
// Passing a buffer as a plain call argument is a borrow and is fine; a
// deferred put discharges the obligation on every exit, panics included.
// Deliberate ownership hand-offs (a helper documented to return a pooled
// buffer the caller must put) annotate the site with
// `//lint:poollifecycle-ok <reason>`; the reason is mandatory. Paths that
// end in an explicit panic are exempt from the leak check: a panic aborts
// the query and the pools are GC-backed, so nothing is lost but a recycle.
package poollifecycle

import (
	"go/ast"
	"go/token"
	"go/types"
	"maps"
	"strings"

	"holistic/internal/analysis"
	"holistic/internal/analysis/cfg"
	"holistic/internal/analysis/dataflow"
)

// Analyzer is the poollifecycle analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "poollifecycle",
	Doc:  "reports pooled scratch buffers that leak on some path, are used or put after release, escape the put discipline, or grow via append",
	Run:  run,
}

// poolGetters maps import-path suffix -> callables that hand out pooled
// buffers the caller must return.
var poolGetters = map[string]map[string]bool{
	"internal/arena": {"Get": true, "GetZeroed": true},
}

// poolPutters maps import-path suffix -> callables that return a buffer
// (always their first argument) to the pool.
var poolPutters = map[string]map[string]bool{
	"internal/arena": {"Put": true},
}

// state is the per-variable may-fact: which events happened on some path.
type state uint8

const (
	live     state = 1 << iota // holds an unreturned buffer
	released                   // was returned to the pool
	deferred                   // a deferred put covers it at exit
)

// fact maps tracked variables to their state; nil is the empty fact.
// Facts are immutable — all updates copy (see dataflow.Problem).
type fact map[types.Object]state

// arenaPkgSuffix identifies the pool implementation itself, which is exempt:
// its whole purpose is to hand buffers out and take them back, so every
// helper there "leaks" by construction.
const arenaPkgSuffix = "internal/arena"

func run(pass *analysis.Pass) error {
	if strings.HasSuffix(pass.Pkg.Path(), arenaPkgSuffix) {
		pass.ReportBareDirectives(analysis.DirectivePoolLifecycleOK)
		return nil
	}
	for _, file := range pass.Files {
		for _, g := range cfg.FileGraphs(file, pass.TypesInfo) {
			analyzeGraph(pass, g)
		}
	}
	pass.ReportBareDirectives(analysis.DirectivePoolLifecycleOK)
	return nil
}

type problem struct{ pass *analysis.Pass }

func (p problem) Entry() fact                     { return nil }
func (p problem) Equal(a, b fact) bool            { return maps.Equal(a, b) }
func (p problem) Refine(f fact, e *cfg.Edge) fact { return f }

func (p problem) Join(a, b fact) fact {
	if len(a) == 0 {
		return b
	}
	if len(b) == 0 {
		return a
	}
	out := maps.Clone(a)
	for o, s := range b {
		out[o] |= s
	}
	return out
}

func set(f fact, o types.Object, s state) fact {
	if f[o] == s {
		return f
	}
	nf := make(fact, len(f)+1)
	maps.Copy(nf, f)
	nf[o] = s
	return nf
}

func del(f fact, o types.Object) fact {
	if _, ok := f[o]; !ok {
		return f
	}
	nf := maps.Clone(f)
	delete(nf, o)
	return nf
}

func (p problem) Transfer(f fact, n ast.Node) fact {
	switch n := n.(type) {
	case *ast.AssignStmt:
		return p.transferAssign(f, n)
	case *ast.DeferStmt:
		// A deferred put covers the buffer on every exit. Look deep:
		// `defer arena.Int32s.Put(buf)` and `defer func() { arena.Int32s.Put(buf) }()`
		// both count.
		for _, obj := range putArgsDeep(p.pass, n) {
			if s, ok := f[obj]; ok {
				f = set(f, obj, s&^live|deferred)
			}
		}
		return f
	case *ast.GoStmt:
		// Ownership moves to the goroutine; the escape is reported in the
		// check phase.
		for obj := range capturedDeep(p.pass, f, n) {
			f = del(f, obj)
		}
		return f
	case *ast.ReturnStmt:
		for _, res := range n.Results {
			if obj := trackedIdent(p.pass, f, res); obj != nil {
				f = del(f, obj)
			}
		}
		return f
	default:
		// Puts, escapes via send or composite literal.
		for _, obj := range putArgsShallow(p.pass, n) {
			if s, ok := f[obj]; ok {
				f = set(f, obj, s&^live|released)
			}
		}
		for obj := range escapesShallow(p.pass, f, n) {
			f = del(f, obj)
		}
		return f
	}
}

func (p problem) transferAssign(f fact, n *ast.AssignStmt) fact {
	// Puts buried in the right-hand sides (rare) still release.
	for _, rhs := range n.Rhs {
		for _, obj := range putArgsShallow(p.pass, rhs) {
			if s, ok := f[obj]; ok {
				f = set(f, obj, s&^live|released)
			}
		}
	}
	if len(n.Lhs) != len(n.Rhs) {
		return f
	}
	for i := range n.Lhs {
		rhs := ast.Unparen(n.Rhs[i])
		switch lhs := ast.Unparen(n.Lhs[i]).(type) {
		case *ast.Ident:
			if lhs.Name == "_" {
				continue
			}
			obj := p.pass.TypesInfo.ObjectOf(lhs)
			if obj == nil {
				continue
			}
			switch {
			case isPoolGet(p.pass, rhs) || isWrappedGet(p.pass, rhs):
				f = set(f, obj, live)
			case trackedIdent(p.pass, f, rhs) != nil:
				// Ownership moves: the new name takes over the state.
				src := trackedIdent(p.pass, f, rhs)
				s := f[src]
				f = del(f, src)
				f = set(f, obj, s)
			case isSliceOf(p.pass, rhs, obj):
				// buf = buf[:n] keeps the same backing buffer checked out.
			default:
				if _, ok := f[obj]; ok {
					f = del(f, obj) // rebound; overwrite-while-live reported in check phase
				}
			}
		default:
			// Store into a field, element or deref: ownership escapes the
			// function (reported in the check phase).
			if obj := trackedIdent(p.pass, f, rhs); obj != nil {
				f = del(f, obj)
			}
		}
	}
	return f
}

// analyzeGraph solves and checks one function.
func analyzeGraph(pass *analysis.Pass, g *cfg.Graph) {
	origins := collectOrigins(pass, g)
	if len(origins) == 0 {
		return
	}
	p := problem{pass}
	in := dataflow.Solve[fact](g, p)

	reportedUse := map[types.Object]bool{}
	report := func(pos token.Pos, format string, args ...any) {
		if _, ok := pass.Suppression(pos, analysis.DirectivePoolLifecycleOK); ok {
			return
		}
		pass.Reportf(pos, format, args...)
	}

	dataflow.Walk[fact](g, p, in, func(_ *cfg.Block, f fact, n ast.Node) {
		switch n := n.(type) {
		case *ast.AssignStmt:
			checkAssign(pass, f, n, report)
		case *ast.ReturnStmt:
			for _, res := range n.Results {
				if obj := trackedIdent(pass, f, res); obj != nil && f[obj]&live != 0 {
					report(n.Pos(), "pooled buffer %s escapes via return; the caller now owns the put (annotate //lint:poollifecycle-ok <reason> if that hand-off is documented)", obj.Name())
				}
			}
		case *ast.GoStmt:
			for obj := range capturedDeep(pass, f, n) {
				if f[obj]&live != 0 {
					report(n.Pos(), "pooled buffer %s is captured by a goroutine; its put can no longer be sequenced with the pool (annotate //lint:poollifecycle-ok <reason>)", obj.Name())
				}
			}
		case *ast.DeferStmt:
			for _, obj := range putArgsDeep(pass, n) {
				if f[obj]&(released|deferred) != 0 {
					report(n.Pos(), "pooled buffer %s is already returned to the pool when this deferred put runs", obj.Name())
				}
			}
		default:
			puts := putArgsShallow(pass, n)
			putSet := map[types.Object]bool{}
			for _, obj := range puts {
				putSet[obj] = true
				if f[obj]&(released|deferred) != 0 {
					report(callPos(n), "pooled buffer %s is returned to the pool twice (a path already put it)", obj.Name())
				}
			}
			for obj, pos := range escapesShallow(pass, f, n) {
				if f[obj]&live != 0 {
					report(pos, "pooled buffer %s escapes into a composite literal or channel; the put discipline loses track of it (annotate //lint:poollifecycle-ok <reason>)", obj.Name())
				}
			}
			// Any other appearance of a released buffer is a use-after-put.
			for obj, pos := range identUses(pass, f, n) {
				if putSet[obj] || reportedUse[obj] {
					continue
				}
				if f[obj]&released != 0 {
					reportedUse[obj] = true
					report(pos, "pooled buffer %s is used after being returned to the pool", obj.Name())
				}
			}
		}
	})

	// Leak check: a buffer live on some path reaching the exit was not
	// returned there. Reported at the get so one finding covers all paths.
	if exitFact, ok := in[g.Exit]; ok {
		for obj, s := range exitFact {
			if s&live != 0 {
				if pos, ok := origins[obj]; ok {
					report(pos, "pooled buffer %s is not returned to the pool on every path (put it on all exits, defer the put, or annotate //lint:poollifecycle-ok <reason>)", obj.Name())
				}
			}
		}
	}
}

// checkAssign reports appends, overwrites and stores of live buffers.
func checkAssign(pass *analysis.Pass, f fact, n *ast.AssignStmt, report func(token.Pos, string, ...any)) {
	if len(n.Lhs) != len(n.Rhs) {
		return
	}
	for i := range n.Lhs {
		rhs := ast.Unparen(n.Rhs[i])
		// Appends first: they subsume the overwrite report.
		if base, fresh := appendBase(pass, rhs); base != nil || fresh {
			what := "a fresh pool Get"
			tracked := false
			if base != nil {
				if obj := trackedIdent(pass, f, base); obj != nil {
					what, tracked = obj.Name(), true
				}
			}
			if fresh || tracked {
				report(rhs.Pos(), "append on pooled buffer %s: growth breaks the size-class recycling contract (write by index, or annotate //lint:poollifecycle-ok <reason>)", what)
				continue
			}
		}
		switch lhs := ast.Unparen(n.Lhs[i]).(type) {
		case *ast.Ident:
			if lhs.Name == "_" {
				continue
			}
			obj := pass.TypesInfo.ObjectOf(lhs)
			if obj == nil {
				continue
			}
			if _, ok := f[obj]; !ok || f[obj]&live == 0 {
				continue
			}
			if src := trackedIdent(pass, f, rhs); src == obj {
				continue
			}
			if isSliceOf(pass, rhs, obj) {
				continue
			}
			report(lhs.Pos(), "pooled buffer %s is overwritten while still checked out; the buffer can no longer be returned", obj.Name())
		default:
			if obj := trackedIdent(pass, f, rhs); obj != nil && f[obj]&live != 0 {
				report(n.Pos(), "pooled buffer %s is stored outside the function's scope; the put discipline loses track of it (annotate //lint:poollifecycle-ok <reason>)", obj.Name())
			}
		}
	}
}

// collectOrigins maps every variable assigned from a pool get (directly or
// through a wrapping call) to the position of its first get.
func collectOrigins(pass *analysis.Pass, g *cfg.Graph) map[types.Object]token.Pos {
	origins := map[types.Object]token.Pos{}
	for _, blk := range g.Blocks {
		for _, n := range blk.Nodes {
			as, ok := n.(*ast.AssignStmt)
			if !ok || len(as.Lhs) != len(as.Rhs) {
				continue
			}
			for i := range as.Lhs {
				rhs := ast.Unparen(as.Rhs[i])
				if !isPoolGet(pass, rhs) && !isWrappedGet(pass, rhs) {
					continue
				}
				id, ok := ast.Unparen(as.Lhs[i]).(*ast.Ident)
				if !ok || id.Name == "_" {
					continue
				}
				if obj := pass.TypesInfo.ObjectOf(id); obj != nil {
					if _, seen := origins[obj]; !seen {
						origins[obj] = rhs.Pos()
					}
				}
			}
		}
	}
	return origins
}

// trackedIdent returns the tracked object expr denotes, or nil.
func trackedIdent(pass *analysis.Pass, f fact, expr ast.Expr) types.Object {
	id, ok := ast.Unparen(expr).(*ast.Ident)
	if !ok {
		return nil
	}
	obj := pass.TypesInfo.ObjectOf(id)
	if obj == nil {
		return nil
	}
	if _, ok := f[obj]; !ok {
		return nil
	}
	return obj
}

// isSliceOf reports whether expr is a slice expression over obj itself
// (buf[:n] — same backing buffer).
func isSliceOf(pass *analysis.Pass, expr ast.Expr, obj types.Object) bool {
	sl, ok := ast.Unparen(expr).(*ast.SliceExpr)
	if !ok {
		return false
	}
	id, ok := ast.Unparen(sl.X).(*ast.Ident)
	return ok && pass.TypesInfo.ObjectOf(id) == obj
}

// isPoolGet reports whether expr is a call to one of the pool getters.
func isPoolGet(pass *analysis.Pass, expr ast.Expr) bool {
	call, ok := ast.Unparen(expr).(*ast.CallExpr)
	if !ok {
		return false
	}
	return calleeIn(pass, call, poolGetters)
}

// isWrappedGet reports whether expr is a call that receives a fresh pool
// get as a direct argument — `SortIndicesIn(arena.Int32s.Get(k), keys)` hands
// the buffer through, so the obligation transfers to the call's result.
func isWrappedGet(pass *analysis.Pass, expr ast.Expr) bool {
	call, ok := ast.Unparen(expr).(*ast.CallExpr)
	if !ok || calleeIn(pass, call, poolGetters) {
		return false
	}
	for _, arg := range call.Args {
		if isPoolGet(pass, arg) {
			return true
		}
	}
	return false
}

// putArgsShallow collects the tracked-or-not objects passed as the buffer
// argument of pool put calls under n, not descending into literals.
func putArgsShallow(pass *analysis.Pass, n ast.Node) []types.Object {
	var out []types.Object
	cfg.InspectShallow(n, func(m ast.Node) bool {
		out = appendPutArg(pass, out, m)
		return true
	})
	return out
}

// putArgsDeep is putArgsShallow descending into literals (for defer).
func putArgsDeep(pass *analysis.Pass, n ast.Node) []types.Object {
	var out []types.Object
	ast.Inspect(n, func(m ast.Node) bool {
		out = appendPutArg(pass, out, m)
		return true
	})
	return out
}

func appendPutArg(pass *analysis.Pass, out []types.Object, m ast.Node) []types.Object {
	call, ok := m.(*ast.CallExpr)
	if !ok || len(call.Args) == 0 || !calleeIn(pass, call, poolPutters) {
		return out
	}
	if id, ok := ast.Unparen(call.Args[0]).(*ast.Ident); ok {
		if obj := pass.TypesInfo.ObjectOf(id); obj != nil {
			out = append(out, obj)
		}
	}
	return out
}

// escapesShallow finds tracked objects placed into composite literals or
// sent on channels under n, mapped to the escape position.
func escapesShallow(pass *analysis.Pass, f fact, n ast.Node) map[types.Object]token.Pos {
	out := map[types.Object]token.Pos{}
	cfg.InspectShallow(n, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.CompositeLit:
			for _, elt := range m.Elts {
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					elt = kv.Value
				}
				if obj := trackedIdent(pass, f, elt); obj != nil {
					out[obj] = elt.Pos()
				}
			}
		case *ast.SendStmt:
			if obj := trackedIdent(pass, f, m.Value); obj != nil {
				out[obj] = m.Pos()
			}
		}
		return true
	})
	return out
}

// capturedDeep finds tracked objects referenced anywhere under n,
// including inside function literals (goroutine captures).
func capturedDeep(pass *analysis.Pass, f fact, n ast.Node) map[types.Object]bool {
	out := map[types.Object]bool{}
	ast.Inspect(n, func(m ast.Node) bool {
		if id, ok := m.(*ast.Ident); ok {
			if obj := pass.TypesInfo.ObjectOf(id); obj != nil {
				if _, tracked := f[obj]; tracked {
					out[obj] = true
				}
			}
		}
		return true
	})
	return out
}

// identUses maps tracked objects used under n (shallow) to their first
// use position. Left-hand sides of assignments are rebindings, not uses;
// the caller passes assignment right-hand sides instead of whole nodes.
func identUses(pass *analysis.Pass, f fact, n ast.Node) map[types.Object]token.Pos {
	out := map[types.Object]token.Pos{}
	cfg.InspectShallow(n, func(m ast.Node) bool {
		id, ok := m.(*ast.Ident)
		if !ok {
			return true
		}
		obj := pass.TypesInfo.ObjectOf(id)
		if obj == nil {
			return true
		}
		if _, tracked := f[obj]; !tracked {
			return true
		}
		if _, seen := out[obj]; !seen {
			out[obj] = id.Pos()
		}
		return true
	})
	return out
}

// appendBase classifies an append call: base is the first argument when it
// is an identifier; fresh reports a direct pool get as first argument.
func appendBase(pass *analysis.Pass, expr ast.Expr) (base *ast.Ident, fresh bool) {
	call, ok := ast.Unparen(expr).(*ast.CallExpr)
	if !ok || len(call.Args) == 0 {
		return nil, false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "append" {
		return nil, false
	}
	if _, ok := pass.TypesInfo.Uses[id].(*types.Builtin); !ok {
		return nil, false
	}
	switch first := ast.Unparen(call.Args[0]).(type) {
	case *ast.Ident:
		return first, false
	case *ast.CallExpr:
		return nil, isPoolGet(pass, first)
	}
	return nil, false
}

// callPos returns a position inside n suitable for reporting a call-level
// finding.
func callPos(n ast.Node) token.Pos { return n.Pos() }

// calleeIn reports whether the call's resolved callee matches one of the
// (package-suffix, name) tables.
func calleeIn(pass *analysis.Pass, call *ast.CallExpr, table map[string]map[string]bool) bool {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return false
	}
	fn, ok := pass.TypesInfo.Uses[id].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return false
	}
	for suffix, names := range table {
		if strings.HasSuffix(fn.Pkg().Path(), suffix) && names[fn.Name()] {
			return true
		}
	}
	return false
}
