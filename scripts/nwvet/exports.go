// The export-discipline analyzer: every exported identifier of a serving
// package earns its place with a production caller, a place in another
// passing identifier's signature, or an //nwvet:oracle annotation naming the
// test it serves.  Unlike the per-unit analyzers it reads the whole walk at
// once, because its question — who calls this? — is about other packages.
package main

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"regexp"
	"strings"
)

// exportDisciplineDirs scopes the export-discipline analyzer to the serving
// packages and internal/word, the word baseline every LinearOrder and
// ContainsLabel query compiles through.  The other paper-reproduction
// packages are still exempt: the experiments are their callers, and some
// of their exports are called only through interfaces inside the package,
// which the analyzer cannot yet see.
var exportDisciplineDirs = []string{
	"internal/engine", "internal/serve", "internal/server", "internal/adapter",
	"internal/docstream", "internal/bundlecache", "internal/query",
	"internal/query/format", "internal/query/plan", "internal/query/dsl",
	"cmd/internal/queryset", "internal/word",
}

// oracleDirective marks an exported identifier kept for tests alone; the
// rest of the line must name the test that uses it.
const oracleDirective = "//nwvet:oracle"

// oracleReason matches a test, fuzz target, benchmark or example name.
var oracleReason = regexp.MustCompile(`\b(Test|Fuzz|Benchmark|Example)\w*`)

// stdlibMethods are method names the standard library calls through its own
// interfaces (error, fmt.Stringer, io.Reader, http.Handler, ...), so a
// method with one of these names has a caller no selector in the walk shows.
var stdlibMethods = map[string]bool{
	"Error": true, "Unwrap": true, "Is": true, "String": true,
	"Read": true, "Write": true, "Close": true, "ServeHTTP": true,
	"MarshalJSON": true, "UnmarshalJSON": true,
}

// export is one exported identifier of a scoped package.
type export struct {
	unit   *unit
	pkg    string // package name, for reports
	name   string // "Name", or "Type.Method" for a method
	method string // the method name; "" for top-level identifiers
	node   ast.Node
	doc    *ast.CommentGroup
	sig    []ast.Expr // the signature, field or declared types it names
	constT string     // the named type of a typed constant; "" otherwise
	pass   bool
}

// analyzeExportDiscipline reports every exported identifier in the scoped
// directories that passes none of the rules: a reference from non-test Go
// outside its package (methods match by name, so a method is never flagged
// while any outside selector spells its name), a mention in the signature,
// field or declared type of a passing identifier of its package, membership
// in a passing named type's constants, or an //nwvet:oracle reason.
func analyzeExportDiscipline(units []*unit, scope []string, report reportFunc) {
	byScope := map[string]*unit{} // scope entry -> unit
	var exports []*export
	// Build-tag variants of one declaration share their index entry.
	index := map[*unit]map[string][]*export{}
	for _, u := range units {
		s := scopeOf(filepath.ToSlash(u.dir), scope)
		if s == "" {
			continue
		}
		byScope[s] = u
		index[u] = map[string][]*export{}
		for _, e := range collectExports(u) {
			exports = append(exports, e)
			index[u][e.name] = append(index[u][e.name], e)
		}
	}

	// One pass over the whole walk: package-qualified references mark
	// top-level identifiers, and every selector name feeds the method rule.
	selectedIn := map[string]map[*unit]bool{} // selector name -> units spelling it
	for _, u := range units {
		for _, file := range u.files {
			ast.Inspect(file, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				if selectedIn[sel.Sel.Name] == nil {
					selectedIn[sel.Sel.Name] = map[*unit]bool{}
				}
				selectedIn[sel.Sel.Name][u] = true
				id, ok := sel.X.(*ast.Ident)
				if !ok {
					return true
				}
				pn, ok := u.info.Uses[id].(*types.PkgName)
				if !ok {
					return true
				}
				if target := byScope[scopeOf(pn.Imported().Path(), scope)]; target != nil && target != u {
					for _, e := range index[target][sel.Sel.Name] {
						e.pass = true
					}
				}
				return true
			})
		}
	}

	for _, e := range exports {
		if e.method != "" && !e.pass {
			e.pass = stdlibMethods[e.method] || selectedOutside(selectedIn[e.method], e.unit)
		}
		if reason, ok := directiveArg(e.doc, oracleDirective); ok {
			if !oracleReason.MatchString(reason) {
				report("%s: export-discipline: %s.%s: %s must name the test that uses it",
					e.unit.position(e.node), e.pkg, e.name, oracleDirective)
			}
			e.pass = true // a bad annotation is reported once, as such
		}
	}

	// Cascade to a fixpoint: a passing identifier keeps alive the
	// same-package types its signature names, and a passing named type keeps
	// alive its constants.
	for changed := true; changed; {
		changed = false
		for _, e := range exports {
			if !e.pass {
				if t := index[e.unit][e.constT]; len(t) > 0 && t[0].pass {
					e.pass, changed = true, true
				}
				continue
			}
			for _, t := range e.sig {
				typeNames(t, func(name string) {
					for _, dep := range index[e.unit][name] {
						if !dep.pass {
							dep.pass, changed = true, true
						}
					}
				})
			}
		}
	}

	for _, e := range exports {
		if !e.pass {
			report("%s: export-discipline: %s.%s has no caller outside its package (delete it, unexport it, or mark it %s <test>)",
				e.unit.position(e.node), e.pkg, e.name, oracleDirective)
		}
	}
}

// scopeOf returns the scope entry an import path or slash-separated
// directory names (matched as a path suffix), or "".
func scopeOf(path string, scope []string) string {
	for _, s := range scope {
		if path == s || strings.HasSuffix(path, "/"+s) {
			return s
		}
	}
	return ""
}

// selectedOutside reports whether a selector name is spelled in any unit
// other than home.
func selectedOutside(in map[*unit]bool, home *unit) bool {
	for u := range in {
		if u != home {
			return true
		}
	}
	return false
}

// directiveArg returns the text after a directive in a doc group, and
// whether the directive is present at all.
func directiveArg(doc *ast.CommentGroup, directive string) (string, bool) {
	if doc == nil {
		return "", false
	}
	for _, c := range doc.List {
		if c.Text == directive || strings.HasPrefix(c.Text, directive+" ") {
			return strings.TrimSpace(strings.TrimPrefix(c.Text, directive)), true
		}
	}
	return "", false
}

// typeNames calls fn with every unqualified identifier a type expression
// names; package-qualified names belong to other packages, and field and
// parameter names are not types.
func typeNames(t ast.Expr, fn func(string)) {
	ast.Inspect(t, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.SelectorExpr:
			return false
		case *ast.Field:
			typeNames(x.Type, fn)
			return false
		case *ast.Ident:
			fn(x.Name)
		}
		return true
	})
}

// collectExports lists a unit's exported functions, methods on exported
// types, types, constants and variables.
func collectExports(u *unit) []*export {
	pkg := u.files[0].Name.Name // loadUnits makes no unit without a file
	var out []*export
	add := func(e *export) {
		e.unit, e.pkg = u, pkg
		out = append(out, e)
	}
	for _, file := range u.files {
		for _, decl := range file.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if !d.Name.IsExported() {
					continue
				}
				e := &export{name: d.Name.Name, node: d, doc: d.Doc, sig: []ast.Expr{d.Type}}
				if d.Recv != nil {
					recv := receiverTypeName(d.Recv)
					if !ast.IsExported(recv) {
						continue
					}
					e.name, e.method = recv+"."+d.Name.Name, d.Name.Name
				}
				add(e)
			case *ast.GenDecl:
				var constT ast.Expr // a const block's implicit type carries down
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						if s.Name.IsExported() {
							add(&export{name: s.Name.Name, node: s, doc: specDoc(d, s.Doc), sig: reachableTypes(s.Type)})
						}
					case *ast.ValueSpec:
						if d.Tok == token.CONST && (s.Type != nil || len(s.Values) > 0) {
							constT = s.Type
						}
						for _, name := range s.Names {
							if !name.IsExported() {
								continue
							}
							e := &export{name: name.Name, node: s, doc: specDoc(d, s.Doc)}
							if s.Type != nil {
								e.sig = []ast.Expr{s.Type}
							}
							if id, ok := constT.(*ast.Ident); ok {
								e.constT = id.Name
							}
							add(e)
						}
					}
				}
			}
		}
	}
	return out
}

// specDoc returns a spec's own doc group, or its declaration's when the spec
// has none (a single ungrouped declaration documents itself there).
func specDoc(d *ast.GenDecl, own *ast.CommentGroup) *ast.CommentGroup {
	if own != nil {
		return own
	}
	return d.Doc
}

// reachableTypes returns the parts of a type definition an outside caller
// can reach: a struct's exported and embedded field types, an interface's
// methods and embeddings, or the whole expression for any other type.
func reachableTypes(t ast.Expr) []ast.Expr {
	st, ok := t.(*ast.StructType)
	if !ok {
		return []ast.Expr{t}
	}
	var out []ast.Expr
	for _, f := range st.Fields.List {
		exported := len(f.Names) == 0
		for _, n := range f.Names {
			exported = exported || n.IsExported()
		}
		if exported {
			out = append(out, f.Type)
		}
	}
	return out
}
