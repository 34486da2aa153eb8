// The export-discipline analyzer: every exported identifier of a non-main
// package earns its place with a production caller, a place in another
// passing identifier's signature, or an //nwvet:oracle annotation naming the
// test it serves, and every other function or method with a reference from
// live code.  Unlike the per-unit analyzers it reads the whole walk at once,
// because its question — who calls this? — is about other packages.
package main

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"strings"
)

// oracleDirective marks an identifier kept for tests alone; the rest of the
// line must name the tests that use it, each declared by some test file.
const oracleDirective = "//nwvet:oracle"

// oracleReason matches a test, fuzz target, benchmark or example name.
var oracleReason = regexp.MustCompile(`\b(Test|Fuzz|Benchmark|Example)\w*`)

// export is one exported identifier of a non-main package.
type export struct {
	unit   *unit
	name   string // "Name", or "Type.Method" for a method
	method string // the method name; "" for top-level identifiers
	node   ast.Node
	doc    *ast.CommentGroup
	sig    []ast.Expr // the signature, field or declared types it names
	constT string     // the named type of a typed constant; "" otherwise
	pass   bool
}

// analyzeExportDiscipline reports every exported identifier of a non-main
// package that passes none of the rules: a reference from non-test Go
// outside its package, resolved by type, so a method is matched through its
// receiver's named type and never by its name alone; for a method, a
// receiver type that implements a live interface declaring it; a mention in
// the signature, field or declared type of a passing identifier of its
// package; membership in a passing named type's constants; or an
// //nwvet:oracle reason naming declared tests.  Then it weighs every other
// function and method by liveness (analyzeLiveness).
func analyzeExportDiscipline(units []*unit, tests map[string]bool, report reportFunc) {
	var exports []*export
	// Build-tag variants of one declaration share their index entry.
	byKey := map[string][]*export{} // import path + "." + name -> declarations
	for _, u := range units {
		if u.pkg.Name() == "main" {
			continue
		}
		for _, e := range collectExports(u) {
			exports = append(exports, e)
			byKey[u.path+"."+e.name] = append(byKey[u.path+"."+e.name], e)
		}
	}

	// Every use of a declaration from outside its package: a qualified
	// identifier, a field or method selection (promoted or through an
	// interface), a method expression.  Calls through an interface are
	// also kept per calling package, for the interface rule below.
	ifaceCalls := map[*types.Func]map[string]bool{} // interface method -> calling packages
	for _, u := range units {
		for _, obj := range u.info.Uses {
			f, isFunc := obj.(*types.Func)
			if isFunc {
				f = f.Origin()
				obj = f
				if recv := f.Signature().Recv(); recv != nil && types.IsInterface(recv.Type()) {
					if ifaceCalls[f] == nil {
						ifaceCalls[f] = map[string]bool{}
					}
					ifaceCalls[f][u.path] = true
				}
			}
			if obj.Pkg() == nil || obj.Pkg().Path() == u.path {
				continue
			}
			if name := declName(obj); name != "" {
				for _, e := range byKey[obj.Pkg().Path()+"."+name] {
					e.pass = true
				}
			}
		}
	}

	for _, e := range exports {
		if reason, ok := directiveArg(e.doc, oracleDirective); ok {
			checkOracle(e.unit, e.node, e.name, reason, tests, report)
			e.pass = true // a bad annotation is reported once, as such
		}
	}

	ifaces := interfaceMethods(units)
	fromSource := map[*types.Package]bool{}
	for _, u := range units {
		fromSource[u.pkg] = true
	}
	// live reports whether calls through an interface method can reach a
	// method of package home: the standard library declares the interface
	// (and calls it), or the interface is an export that passes, or a
	// package other than home calls the method through it.
	live := func(im ifaceMethod, home string) bool {
		p := im.iface.Pkg()
		if p == nil || !fromSource[p] {
			return true
		}
		if decl := byKey[p.Path()+"."+im.iface.Name()]; len(decl) > 0 && decl[0].pass {
			return true
		}
		for caller := range ifaceCalls[im.m] {
			if caller != home {
				return true
			}
		}
		return false
	}

	// Cascade to a fixpoint: a passing identifier keeps alive the
	// same-package types its signature names, a passing named type keeps
	// alive its constants, and a passing interface keeps alive the methods
	// that implement it.
	for changed := true; changed; {
		changed = false
		for _, e := range exports {
			if !e.pass {
				if t := byKey[e.unit.path+"."+e.constT]; len(t) > 0 && t[0].pass {
					e.pass, changed = true, true
				}
				if e.method != "" && len(implemented(e.unit, e.name, e.method, ifaces, live)) > 0 {
					e.pass, changed = true, true
				}
				continue
			}
			for _, t := range e.sig {
				typeNames(t, func(name string) {
					for _, dep := range byKey[e.unit.path+"."+name] {
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
				e.unit.position(e.node), e.unit.pkg.Name(), e.name, oracleDirective)
		}
	}
	analyzeLiveness(units, byKey, ifaces, live, tests, report)
}

// checkOracle reports an //nwvet:oracle reason that names no test, or names
// one that no test file of the walk declares.
func checkOracle(u *unit, n ast.Node, name, reason string, tests map[string]bool, report reportFunc) {
	cited := oracleReason.FindAllString(reason, -1)
	if len(cited) == 0 {
		report("%s: export-discipline: %s.%s: %s must name the test that uses it",
			u.position(n), u.pkg.Name(), name, oracleDirective)
	}
	for _, test := range cited {
		if !tests[test] {
			report("%s: export-discipline: %s.%s: %s names %s, which no test file declares",
				u.position(n), u.pkg.Name(), name, oracleDirective, test)
		}
	}
}

// fn is one function or method declaration the liveness rule weighs.
type fn struct {
	unit *unit
	decl *ast.FuncDecl
	name string   // "name", or "Type.method" for a method
	key  string   // its funcKey: import path + "." + name
	refs []string // funcKey of every function and method its body names
}

// analyzeLiveness reports every unexported function and method that no
// live code reaches.  A function is live when a root or a live function
// names it, to a fixpoint.  The roots are the exports that pass, exported
// names export-discipline does not weigh (a main package's, or a method of
// an unexported type, which the standard library may reach by an interface
// assertion it declares unexported), main and init, every function a
// package-level var or const initializer names, and every function marked
// //nwvet:oracle.  A method is also live when its receiver type implements
// an interface declaring it that is live for export-discipline or whose
// method a live function calls.
func analyzeLiveness(units []*unit, byKey map[string][]*export, ifaces map[string][]ifaceMethod, ifaceLive func(ifaceMethod, string) bool, tests map[string]bool, report reportFunc) {
	var fns []*fn
	byFunc := map[string][]*fn{} // funcKey -> declarations (build-tag variants share one)
	live := map[string]bool{}
	var work []string
	mark := func(key string) {
		if !live[key] {
			live[key] = true
			work = append(work, key)
		}
	}
	for _, u := range units {
		for _, file := range u.files {
			for _, decl := range file.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					f := &fn{unit: u, decl: d, name: d.Name.Name, refs: funcRefs(u, d)}
					if d.Recv != nil {
						f.name = receiverTypeName(d.Recv) + "." + f.name
					}
					key := u.path + "." + f.name
					f.key = key
					fns = append(fns, f)
					byFunc[key] = append(byFunc[key], f)
					if e := byKey[key]; d.Name.IsExported() && (len(e) == 0 || e[0].pass) {
						mark(key) // an export that passes, or one outside export-discipline
					}
					if d.Recv == nil && (d.Name.Name == "init" || d.Name.Name == "main" && u.pkg.Name() == "main") {
						mark(key)
					}
					if reason, ok := directiveArg(d.Doc, oracleDirective); ok {
						if len(byKey[key]) == 0 { // an export's annotation is checked above
							checkOracle(u, d, f.name, reason, tests, report)
						}
						mark(key)
					}
				case *ast.GenDecl:
					for _, key := range funcRefs(u, d) {
						mark(key)
					}
				}
			}
		}
	}

	// The interface methods each method implements, computed once.
	implements := map[*fn][]ifaceMethod{}
	for _, f := range fns {
		if f.decl.Recv != nil {
			implements[f] = implemented(f.unit, f.name, f.decl.Name.Name, ifaces, func(ifaceMethod, string) bool { return true })
		}
	}
	for {
		for len(work) > 0 {
			key := work[len(work)-1]
			work = work[:len(work)-1]
			for _, f := range byFunc[key] {
				for _, r := range f.refs {
					mark(r)
				}
			}
		}
		for f, ims := range implements {
			if live[f.key] {
				continue
			}
			for _, im := range ims {
				if live[funcKey(im.m)] || ifaceLive(im, f.unit.path) {
					mark(f.key)
					break
				}
			}
		}
		if len(work) == 0 {
			break
		}
	}

	for _, f := range fns {
		if !live[f.key] && !f.decl.Name.IsExported() {
			report("%s: export-discipline: %s.%s is reached by no live code, only by tests or nothing (delete it, or mark it %s <test>)",
				f.unit.position(f.decl), f.unit.pkg.Name(), f.name, oracleDirective)
		}
	}
}

// funcRefs returns the funcKey of every function and method a declaration
// names, interface methods included.
func funcRefs(u *unit, decl ast.Node) []string {
	var out []string
	ast.Inspect(decl, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if f, ok := u.info.Uses[id].(*types.Func); ok {
				if key := funcKey(f); key != "" {
					out = append(out, key)
				}
			}
		}
		return true
	})
	return out
}

// funcKey names a function or method across the walk: import path + "." +
// its declName; "" for a method of an unnamed interface.
func funcKey(f *types.Func) string {
	f = f.Origin()
	if f.Pkg() == nil {
		return "" // the predeclared error's Error
	}
	if name := declName(f); name != "" {
		return f.Pkg().Path() + "." + name
	}
	return ""
}

// declName returns an object's index name, "Name" or "Type.Method", or ""
// for an object that is neither a package-level declaration nor a method of
// a named type.
func declName(obj types.Object) string {
	f, ok := obj.(*types.Func)
	if !ok || f.Signature().Recv() == nil {
		if obj.Parent() != obj.Pkg().Scope() {
			return "" // a field, a local
		}
		return obj.Name()
	}
	if n := namedOf(f.Signature().Recv().Type()); n != nil {
		return n.Obj().Name() + "." + f.Name()
	}
	return ""
}

// namedOf returns t, or what t points to, as a named type; nil otherwise.
func namedOf(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

// ifaceMethod is one method of a named interface type.
type ifaceMethod struct {
	iface *types.TypeName
	m     *types.Func
	t     *types.Interface
}

// interfaceMethods indexes by method name every method of the named
// interfaces declared in the walk's packages and the packages they import,
// the predeclared error among them.
func interfaceMethods(units []*unit) map[string][]ifaceMethod {
	out := map[string][]ifaceMethod{}
	seen := map[*types.Package]bool{}
	addScope := func(scope *types.Scope) {
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			it, ok := tn.Type().Underlying().(*types.Interface)
			if !ok {
				continue
			}
			for i := 0; i < it.NumMethods(); i++ {
				m := it.Method(i)
				out[m.Name()] = append(out[m.Name()], ifaceMethod{tn, m, it})
			}
		}
	}
	addScope(types.Universe)
	for _, u := range units {
		for _, p := range append([]*types.Package{u.pkg}, u.pkg.Imports()...) {
			if !seen[p] {
				seen[p] = true
				addScope(p.Scope())
			}
		}
	}
	return out
}

// implemented returns the interface methods that a method, "Type.method"
// of the unit, implements and that live accepts.  The pointer type's method
// set holds both receiver kinds, so it stands for the receiver type.
func implemented(u *unit, name, method string, ifaces map[string][]ifaceMethod, live func(ifaceMethod, string) bool) []ifaceMethod {
	tn, ok := u.pkg.Scope().Lookup(strings.TrimSuffix(name, "."+method)).(*types.TypeName)
	if !ok {
		return nil
	}
	if n := namedOf(tn.Type()); n == nil || n.TypeParams().Len() > 0 {
		return nil // a generic type implements nothing until instantiated
	}
	ptr := types.NewPointer(tn.Type())
	var out []ifaceMethod
	for _, im := range ifaces[method] {
		if types.Implements(ptr, im.t) && live(im, u.path) {
			out = append(out, im)
		}
	}
	return out
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
	var out []*export
	add := func(e *export) {
		e.unit = u
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
