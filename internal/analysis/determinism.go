package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"path"
	"strings"
)

// The determinism pass makes nondeterminism a compile-time class of bug
// in the simulation packages: the whole evaluation methodology rests on
// bit-identical FNV-1a digests (PAPER.md §V), so anything whose order or
// value varies between identical runs — unordered map iteration feeding
// state or output, the wall clock, the global math/rand stream, or stray
// concurrency — is rejected before it can rot a golden digest.
//
// Rules:
//
//	maprange  — `range` over a map type, unless the body provably only
//	            collects keys/values into slices that are sorted later in
//	            the same function. Applies to every linted package:
//	            iteration order reaching output is a bug in a CLI too.
//	wallclock — time.Now / time.Since and friends. Simulation packages only.
//	mathrand  — any use of math/rand or math/rand/v2 (globally seeded,
//	            order-sensitive). Simulation code draws from the seeded
//	            sim.RNG instead. Simulation packages only.
//	goroutine — `go` statements anywhere except the sanctioned worker
//	            pools: the harness run pool (internal/harness/parallel.go)
//	            and the experiment service's pool (internal/serve/pool.go),
//	            where every goroutine runs whole, independent simulations
//	            (each a deterministic harness run on its own machine).
//	            Simulation packages only.
//	staleallow — a goroutineAllowlist entry that no longer matches any go
//	            statement. The allowlist is verified, not hand-trusted: a
//	            sanctioned location that stops spawning loses its sanction,
//	            so the list cannot silently grow stale.

// wallClockFuncs are the time package functions that read the wall clock
// or schedule against it.
var wallClockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "Tick": true, "NewTimer": true, "NewTicker": true, "AfterFunc": true,
}

// simPackage reports whether the package is simulation code: the root
// package and everything under internal/ except the analyzer itself.
func simPackage(pkg *Package) bool {
	if pkg.Rel == "" {
		return true
	}
	if pkg.Rel == "internal/analysis" || strings.HasPrefix(pkg.Rel, "internal/analysis/") {
		return false
	}
	return pkg.Rel == "internal" || strings.HasPrefix(pkg.Rel, "internal/")
}

// mapRangeScope reports whether the maprange rule applies: everything
// linted except the analyzer itself (whose map iteration never reaches
// simulation state and whose output is sorted at the report boundary).
func mapRangeScope(pkg *Package) bool {
	return simPackage(pkg) || strings.HasPrefix(pkg.Rel, "cmd/")
}

// goAllowEntry is one verified entry of the goroutine allowlist: a
// package (optionally narrowed to one file) where `go` statements are
// sanctioned. matched records whether any go statement actually hit the
// entry this run; an unmatched entry is reported stale.
type goAllowEntry struct {
	pkg     string // module-relative package path
	file    string // optional file base-name restriction ("" = whole package)
	matched bool
}

// goroutineAllowlist returns the sanctioned worker-pool locations: the
// harness run pool and the experiment service's pool. Fresh records per
// run, so match bookkeeping never leaks between Run calls.
func goroutineAllowlist() []*goAllowEntry {
	return []*goAllowEntry{
		{pkg: "internal/harness", file: "parallel.go"},
		{pkg: "internal/serve", file: "pool.go"},
	}
}

func determinismPass(prog *Program, dirs *directives) []Finding {
	allow := goroutineAllowlist()
	var out []Finding
	for _, pkg := range prog.Pkgs {
		if !mapRangeScope(pkg) {
			continue
		}
		sim := simPackage(pkg)
		for _, f := range pkg.Files {
			w := &detWalker{prog: prog, pkg: pkg, dirs: dirs, sim: sim, allow: allow}
			w.walkFile(f)
			out = append(out, w.findings...)
		}
	}
	out = append(out, staleGoAllows(prog, allow)...)
	return out
}

// staleGoAllows reports every allowlist entry that matched no go
// statement, anchored at the entry's package clause (or the named file)
// so the finding points at the code that lost its sanction.
func staleGoAllows(prog *Program, allow []*goAllowEntry) []Finding {
	var out []Finding
	for _, e := range allow {
		if e.matched {
			continue
		}
		desc := e.pkg
		if e.file != "" {
			desc += "/" + e.file
		}
		file, line, col := goAllowAnchor(prog, e)
		out = append(out, Finding{
			Pass: "determinism", Rule: "staleallow", File: file, Line: line, Col: col,
			Message: "goroutine allowlist entry " + desc + " matches no go statement; remove it from goroutineAllowlist (internal/analysis/determinism.go)",
		})
	}
	return out
}

// goAllowAnchor locates the package clause (or named file) an unmatched
// allowlist entry refers to. A package that does not even exist anchors
// at a synthesized position on its would-be path.
func goAllowAnchor(prog *Program, e *goAllowEntry) (string, int, int) {
	for _, pkg := range prog.Pkgs {
		if pkg.Rel != e.pkg {
			continue
		}
		for _, f := range pkg.Files {
			file, line, col := prog.Position(f.Pos())
			if e.file == "" || path.Base(file) == e.file {
				return file, line, col
			}
		}
	}
	file := e.pkg
	if e.file != "" {
		file += "/" + e.file
	}
	return file, 1, 1
}

type detWalker struct {
	prog     *Program
	pkg      *Package
	dirs     *directives
	sim      bool
	allow    []*goAllowEntry
	fn       *ast.FuncDecl // enclosing function declaration
	findings []Finding
}

func (w *detWalker) walkFile(f *ast.File) {
	for _, decl := range f.Decls {
		if fd, ok := decl.(*ast.FuncDecl); ok {
			w.fn = fd
			ast.Inspect(fd, w.visit)
			w.fn = nil
			continue
		}
		ast.Inspect(decl, w.visit)
	}
}

func (w *detWalker) report(pos token.Pos, rule, msg string) {
	file, line, col := w.prog.Position(pos)
	if w.dirs.allowedAt(file, line, rule) || w.dirs.allowedFunc(w.fn, rule) {
		return
	}
	fn := ""
	if w.fn != nil {
		fn = funcDisplayName(w.pkg, w.fn)
	}
	w.findings = append(w.findings, Finding{
		Pass: "determinism", Rule: rule, File: file, Line: line, Col: col,
		Func: fn, Message: msg,
	})
}

func (w *detWalker) visit(n ast.Node) bool {
	switch n := n.(type) {
	case *ast.RangeStmt:
		w.checkRange(n)
	case *ast.GoStmt:
		if w.sim && !w.goAllowedHere(n) {
			w.report(n.Pos(), "goroutine",
				"goroutine spawned outside the sanctioned worker pools (internal/harness/parallel.go, internal/serve/pool.go); simulation code must stay single-threaded")
		}
	case *ast.Ident:
		if w.sim {
			w.checkIdentUse(n)
		}
	}
	return true
}

// goAllowedHere implements the verified goroutine exemptions: the
// worker-pool files of goroutineAllowlist. A hit marks the entry live;
// entries that never hit are reported stale after the pass.
func (w *detWalker) goAllowedHere(n *ast.GoStmt) bool {
	for _, e := range w.allow {
		if w.pkg.Rel != e.pkg {
			continue
		}
		if e.file != "" {
			file, _, _ := w.prog.Position(n.Pos())
			if path.Base(file) != e.file {
				continue
			}
		}
		e.matched = true
		return true
	}
	return false
}

// checkIdentUse flags uses of wall-clock and math/rand symbols.
func (w *detWalker) checkIdentUse(id *ast.Ident) {
	obj := w.pkg.Info.Uses[id]
	if obj == nil || obj.Pkg() == nil {
		return
	}
	if _, isPkgName := obj.(*types.PkgName); isPkgName {
		return // flag the selected symbol, not the qualifier
	}
	switch obj.Pkg().Path() {
	case "time":
		if wallClockFuncs[obj.Name()] {
			w.report(id.Pos(), "wallclock",
				"time."+obj.Name()+" in simulation code; runs must not observe the wall clock (derive timing from sim.Cycles)")
		}
	case "math/rand", "math/rand/v2":
		w.report(id.Pos(), "mathrand",
			obj.Pkg().Path()+"."+obj.Name()+" in simulation code; draw from the seeded sim.RNG instead")
	}
}

// checkRange flags `range` over map types whose iteration can feed state
// or output in arbitrary order.
func (w *detWalker) checkRange(rs *ast.RangeStmt) {
	tv, ok := w.pkg.Info.Types[rs.X]
	if !ok || tv.Type == nil {
		return
	}
	if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
		return
	}
	if w.isSortedCollect(rs) {
		return
	}
	w.report(rs.Pos(), "maprange",
		"range over map "+types.TypeString(tv.Type, types.RelativeTo(w.pkg.Types))+
			" iterates in arbitrary order; collect keys into a slice and sort it first")
}

// isSortedCollect reports whether the range body only appends loop
// variables (or expressions over them) to slices, and every such slice
// is passed to a sort call later in the same function — the one map
// iteration shape that is provably order-insensitive.
func (w *detWalker) isSortedCollect(rs *ast.RangeStmt) bool {
	if w.fn == nil || len(rs.Body.List) == 0 {
		return false
	}
	var collected []types.Object
	for _, stmt := range rs.Body.List {
		as, ok := stmt.(*ast.AssignStmt)
		if !ok || as.Tok != token.ASSIGN || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
			return false
		}
		lhs, ok := as.Lhs[0].(*ast.Ident)
		if !ok {
			return false
		}
		call, ok := as.Rhs[0].(*ast.CallExpr)
		if !ok || len(call.Args) < 2 {
			return false
		}
		fun, ok := call.Fun.(*ast.Ident)
		if !ok || w.pkg.Info.Uses[fun] == nil {
			return false
		}
		if b, isBuiltin := w.pkg.Info.Uses[fun].(*types.Builtin); !isBuiltin || b.Name() != "append" {
			return false
		}
		first, ok := call.Args[0].(*ast.Ident)
		if !ok || w.pkg.Info.Uses[first] != w.pkg.Info.Uses[lhs] {
			return false
		}
		collected = append(collected, w.pkg.Info.Uses[lhs])
	}
	for _, obj := range collected {
		if !w.sortedAfter(rs, obj) {
			return false
		}
	}
	return true
}

// sortedAfter reports whether obj is passed as the first argument to a
// sort.* or slices.Sort* call positioned after the range statement in
// the enclosing function.
func (w *detWalker) sortedAfter(rs *ast.RangeStmt, obj types.Object) bool {
	found := false
	ast.Inspect(w.fn.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rs.End() || len(call.Args) == 0 {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		fn, ok := w.pkg.Info.Uses[sel.Sel].(*types.Func)
		if !ok || fn.Pkg() == nil {
			return true
		}
		if p := fn.Pkg().Path(); p != "sort" && p != "slices" {
			return true
		}
		if arg, ok := call.Args[0].(*ast.Ident); ok && w.pkg.Info.Uses[arg] == obj {
			found = true
			return false
		}
		return true
	})
	return found
}

// funcDisplayName renders "pkg.Func" or "pkg.(*Recv).Method".
func funcDisplayName(pkg *Package, fd *ast.FuncDecl) string {
	name := pkg.Types.Name() + "." + fd.Name.Name
	if fd.Recv != nil && len(fd.Recv.List) == 1 {
		recv := types.ExprString(fd.Recv.List[0].Type)
		name = pkg.Types.Name() + ".(" + recv + ")." + fd.Name.Name
	}
	return name
}
