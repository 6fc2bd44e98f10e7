package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// Directive syntax (DESIGN.md §9):
//
//	//tdnuca:hotpath
//	    On a function's doc comment: the function must stay
//	    allocation-free, transitively, on every resolvable call path.
//
//	//tdnuca:allow(<rule>) <reason>
//	    Suppresses findings of <rule>. On a function's doc comment it
//	    exempts the whole function (and, for "alloc", stops the
//	    transitive hot-path walk from descending into it). On or
//	    immediately above an offending line it exempts that line only.
//	    The reason is mandatory: a suppression without a recorded
//	    justification is itself a finding. So is a suppression that
//	    suppresses nothing (pass "directive", rule "stale"): allows must
//	    not outlive the code they excused.

// knownRules are the rule names accepted inside allow(...).
var knownRules = map[string]bool{
	"maprange":  true,
	"wallclock": true,
	"mathrand":  true,
	"goroutine": true,
	"alloc":     true,
	"latency":   true,
}

// allowUse is one parsed //tdnuca:allow directive plus whether any pass
// consulted it to suppress a finding (or to stop a transitive walk).
// The line, line-below and function-scope registrations of a single
// directive share one record, so one suppression anywhere marks the
// directive live; a record still unused after every pass has run is
// reported stale.
type allowUse struct {
	file string
	line int
	col  int
	rule string
	used bool
}

// directives is the parsed directive set of a whole Program.
type directives struct {
	prog *Program

	// hotFuncs are the //tdnuca:hotpath roots in declaration order.
	hotFuncs []*types.Func

	// funcAllow exempts entire functions: decl -> rule -> record.
	funcAllow map[*ast.FuncDecl]map[string]*allowUse

	// lineAllow exempts single lines: file -> line -> rule -> record. A
	// directive covers its own line and the line below it, so it can
	// ride at the end of the offending line or on its own line above.
	lineAllow map[string]map[int]map[string]*allowUse

	// allows holds every well-formed allow record in parse order, for
	// the stale-suppression sweep after all passes have run.
	allows []*allowUse

	// findings are malformed directives.
	findings []Finding
}

// collectDirectives parses every //tdnuca: comment in the program.
func collectDirectives(prog *Program) *directives {
	d := &directives{
		prog:      prog,
		funcAllow: make(map[*ast.FuncDecl]map[string]*allowUse),
		lineAllow: make(map[string]map[int]map[string]*allowUse),
	}
	for _, pkg := range prog.Pkgs {
		for _, f := range pkg.Files {
			d.collectFile(pkg, f)
		}
	}
	return d
}

func (d *directives) collectFile(pkg *Package, f *ast.File) {
	// Line-scoped directives: every //tdnuca: comment anywhere.
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			d.parseComment(pkg, c)
		}
	}
	// Function-scoped directives: the declaration's doc comment.
	for _, decl := range f.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if ok && fd.Doc != nil {
			d.collectFuncDoc(pkg, fd)
		}
	}
}

// parseComment handles one comment line, registering line-level allows
// and reporting malformed directives.
func (d *directives) parseComment(pkg *Package, c *ast.Comment) {
	text, ok := strings.CutPrefix(c.Text, "//tdnuca:")
	if !ok {
		return
	}
	file, line, col := d.prog.Position(c.Pos())
	text = strings.TrimSpace(text)
	switch {
	case text == "hotpath":
		// Validated in collectFuncDoc; a stray directive that is not a
		// function doc comment is caught there by never matching.
	case strings.HasPrefix(text, "allow("):
		rule, reason, ok := splitAllow(text)
		if !ok || !knownRules[rule] {
			d.findings = append(d.findings, Finding{
				Pass: "directive", Rule: "syntax", File: file, Line: line, Col: col,
				Message: "malformed allow directive; want //tdnuca:allow(<rule>) <reason> with rule one of " + ruleNames(),
			})
			return
		}
		if reason == "" {
			d.findings = append(d.findings, Finding{
				Pass: "directive", Rule: "syntax", File: file, Line: line, Col: col,
				Message: "allow(" + rule + ") without a reason; every suppression must record its justification",
			})
			return
		}
		rec := &allowUse{file: file, line: line, col: col, rule: rule}
		d.allows = append(d.allows, rec)
		d.addLineAllow(file, line, rule, rec)
		d.addLineAllow(file, line+1, rule, rec)
	default:
		d.findings = append(d.findings, Finding{
			Pass: "directive", Rule: "syntax", File: file, Line: line, Col: col,
			Message: "unknown directive //tdnuca:" + text + "; want hotpath or allow(<rule>) <reason>",
		})
	}
}

// collectFuncDoc attaches doc-comment directives to the declaration.
func (d *directives) collectFuncDoc(pkg *Package, fd *ast.FuncDecl) {
	for _, c := range fd.Doc.List {
		text, ok := strings.CutPrefix(c.Text, "//tdnuca:")
		if !ok {
			continue
		}
		text = strings.TrimSpace(text)
		if text == "hotpath" {
			if fn, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
				d.hotFuncs = append(d.hotFuncs, fn)
			}
			continue
		}
		if rule, reason, ok := splitAllow(text); ok && knownRules[rule] && reason != "" {
			file, line, _ := d.prog.Position(c.Pos())
			rec := d.lineAllow[file][line][rule]
			if rec == nil {
				continue // malformed; already reported by parseComment
			}
			if d.funcAllow[fd] == nil {
				d.funcAllow[fd] = make(map[string]*allowUse)
			}
			d.funcAllow[fd][rule] = rec
		}
		// Malformed doc directives were already reported by parseComment.
	}
}

func (d *directives) addLineAllow(file string, line int, rule string, rec *allowUse) {
	if d.lineAllow[file] == nil {
		d.lineAllow[file] = make(map[int]map[string]*allowUse)
	}
	if d.lineAllow[file][line] == nil {
		d.lineAllow[file][line] = make(map[string]*allowUse)
	}
	d.lineAllow[file][line][rule] = rec
}

// allowedAt reports whether rule is suppressed at file:line, marking the
// directive live.
func (d *directives) allowedAt(file string, line int, rule string) bool {
	rec := d.lineAllow[file][line][rule]
	if rec == nil {
		return false
	}
	rec.used = true
	return true
}

// allowedFunc reports whether rule is suppressed for the whole function,
// marking the directive live.
func (d *directives) allowedFunc(fd *ast.FuncDecl, rule string) bool {
	if fd == nil {
		return false
	}
	rec := d.funcAllow[fd][rule]
	if rec == nil {
		return false
	}
	rec.used = true
	return true
}

// staleAllows reports every allow directive that suppressed nothing
// after all passes have run: a suppression must not outlive the code it
// excused.
func (d *directives) staleAllows() []Finding {
	var out []Finding
	for _, rec := range d.allows {
		if rec.used {
			continue
		}
		out = append(out, Finding{
			Pass: "directive", Rule: "stale", File: rec.file, Line: rec.line, Col: rec.col,
			Message: "allow(" + rec.rule + ") suppresses no finding; remove the stale directive",
		})
	}
	return out
}

// splitAllow parses "allow(rule) reason" into its parts.
func splitAllow(text string) (rule, reason string, ok bool) {
	rest, found := strings.CutPrefix(text, "allow(")
	if !found {
		return "", "", false
	}
	i := strings.IndexByte(rest, ')')
	if i < 0 {
		return "", "", false
	}
	return rest[:i], strings.TrimSpace(rest[i+1:]), true
}

func ruleNames() string {
	names := make([]string, 0, len(knownRules))
	for r := range knownRules {
		names = append(names, r)
	}
	// Sorted so the diagnostic is deterministic.
	for i := 1; i < len(names); i++ {
		for j := i; j > 0 && names[j] < names[j-1]; j-- {
			names[j], names[j-1] = names[j-1], names[j]
		}
	}
	return strings.Join(names, "|")
}
