// Project-specific analyzers: hotpath-alloc, the import-confinement table
// (unsafe, crypto, dsl, plan), locked-field, and error-discipline.  Each is syntactic at its core and
// uses type information opportunistically — where the lenient checker left
// an expression unresolved, the analyzer stays silent rather than guessing.
package main

import (
	"bytes"
	"go/ast"
	"go/printer"
	"go/token"
	"go/types"
	"regexp"
	"slices"
	"strings"
)

// Annotation grammar (see docs/ANALYZERS.md): directives are whole-line
// comments in a declaration's doc group, spelled without a space after //
// so gofmt preserves them.
const (
	hotpathDirective    = "//nwvet:hotpath"
	lockedDirective     = "//nwvet:locked"
	allowPanicDirective = "//nwvet:allowpanic"
)

// hasDirective scans a doc group's raw comment list for a //nwvet:
// directive.  CommentGroup.Text() strips directive comments, so the raw
// list is the only place they survive.
func hasDirective(doc *ast.CommentGroup, directive string) bool {
	_, ok := directiveArg(doc, directive)
	return ok
}

// exprText renders an expression back to source for structural comparison
// (append targets, receiver paths).
func (u *unit) exprText(e ast.Expr) string {
	var buf bytes.Buffer
	printer.Fprint(&buf, u.fset, e)
	return buf.String()
}

// baseExpr strips slice and paren wrappers: append(x[:0], ...) grows the
// same backing array as x.
func baseExpr(e ast.Expr) ast.Expr {
	for {
		switch x := e.(type) {
		case *ast.SliceExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return e
		}
	}
}

// isIdentCall reports whether call invokes the named plain identifier
// (builtins like make, new, append, panic, and conversions like string).
func isIdentCall(call *ast.CallExpr, name string) bool {
	id, ok := call.Fun.(*ast.Ident)
	return ok && id.Name == name
}

// analyzeHotpathAlloc checks every function annotated //nwvet:hotpath for
// constructs that allocate per call.  The one sanctioned allocation is the
// amortized growth pattern x = append(x, ...) (including append(x[:0], ...))
// — the slice doubles occasionally but steady-state steps are free.
func analyzeHotpathAlloc(u *unit, report reportFunc) {
	for _, file := range u.files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !hasDirective(fd.Doc, hotpathDirective) {
				continue
			}
			u.checkHotpathBody(fd, report)
		}
	}
}

func (u *unit) checkHotpathBody(fd *ast.FuncDecl, report reportFunc) {
	name := fd.Name.Name
	violation := func(n ast.Node, format string, args ...any) {
		report("%s: hotpath-alloc: %s "+format, append([]any{u.position(n), name}, args...)...)
	}

	// First pass: collect appends sanctioned by the growth pattern.
	sanctioned := map[*ast.CallExpr]bool{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || as.Tok != token.ASSIGN || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, rhs := range as.Rhs {
			call, ok := rhs.(*ast.CallExpr)
			if !ok || !isIdentCall(call, "append") || len(call.Args) == 0 {
				continue
			}
			if u.exprText(as.Lhs[i]) == u.exprText(baseExpr(call.Args[0])) {
				sanctioned[call] = true
			}
		}
		return true
	})

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			violation(x, "allocates a closure")
			return false
		case *ast.CompositeLit:
			switch t := x.Type.(type) {
			case *ast.MapType:
				violation(x, "allocates a map literal")
			case *ast.ArrayType:
				if t.Len == nil {
					violation(x, "allocates a slice literal")
				}
			}
		case *ast.UnaryExpr:
			if x.Op == token.AND {
				if _, ok := x.X.(*ast.CompositeLit); ok {
					violation(x, "heap-allocates an addressed composite literal")
				}
			}
		case *ast.AssignStmt:
			for _, lhs := range x.Lhs {
				idx, ok := lhs.(*ast.IndexExpr)
				if !ok {
					continue
				}
				if tv, ok := u.info.Types[idx.X]; ok && tv.Type != nil {
					if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
						violation(idx, "assigns into a map")
					}
				}
			}
		case *ast.CallExpr:
			u.checkHotpathCall(x, sanctioned, violation)
		}
		return true
	})
}

// checkHotpathCall flags the allocating call forms inside a hotpath body.
func (u *unit) checkHotpathCall(call *ast.CallExpr, sanctioned map[*ast.CallExpr]bool, violation func(ast.Node, string, ...any)) {
	switch {
	case isIdentCall(call, "make"), isIdentCall(call, "new"):
		violation(call, "calls %s, which allocates", call.Fun.(*ast.Ident).Name)
		return
	case isIdentCall(call, "append"):
		if !sanctioned[call] && len(call.Args) > 0 {
			violation(call, "append result does not feed back into %s (amortized growth pattern required)",
				u.exprText(baseExpr(call.Args[0])))
		}
		return
	case isIdentCall(call, "string"):
		violation(call, "converts to string, which allocates")
		return
	}
	if _, ok := call.Fun.(*ast.ArrayType); ok {
		violation(call, "converts to a slice type, which allocates")
		return
	}
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "fmt" {
			violation(call, "calls fmt.%s, which allocates and boxes its arguments", sel.Sel.Name)
			return
		}
	}
	if arg, param, ok := u.boxedArgument(call); ok {
		violation(call, "boxes %s into interface parameter %d", u.exprText(arg), param)
	}
}

// boxedArgument reports the first argument whose resolved type is concrete
// while the resolved parameter type is an interface — an implicit
// heap-boxing conversion.  Unresolved signatures or argument types produce
// no finding.
func (u *unit) boxedArgument(call *ast.CallExpr) (ast.Expr, int, bool) {
	tv, ok := u.info.Types[call.Fun]
	if !ok || tv.Type == nil {
		return nil, 0, false
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return nil, 0, false
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			st, ok := params.At(params.Len() - 1).Type().(*types.Slice)
			if !ok {
				continue // f(slice...) spread, or unresolved
			}
			pt = st.Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		if pt == nil || !types.IsInterface(pt) {
			continue
		}
		at, ok := u.info.Types[arg]
		if !ok || at.Type == nil || types.IsInterface(at.Type.Underlying()) {
			continue
		}
		if basic, ok := at.Type.(*types.Basic); ok &&
			(basic.Kind() == types.Invalid || basic.Kind() == types.UntypedNil) {
			continue
		}
		return arg, i, true
	}
	return nil, 0, false
}

// confinement is one import-confinement rule: the packages it covers may be
// imported only inside its directories (allow) or never inside them (deny),
// and the selector expressions it bans follow the same scoping.  Test files
// are exempt (loadUnits never parses them): differential tests legitimately
// compile DSL queries and plan bundles next to the stack under test.
type confinement struct {
	name        string   // diagnostic prefix, e.g. "dsl-confinement"
	imports     []string // import paths the rule covers
	dirs        []string // slash-separated directories the rule scopes
	deny        bool     // true: violations are inside dirs; false: outside
	importMsg   string   // diagnostic for a covered import; %s is its path
	selectors   []string // "pkg.Name" selector expressions the rule bans
	selectorMsg string   // diagnostic for a banned selector; %s is its text
}

// confinements is the repository's import-confinement table.
var confinements = []confinement{
	{
		// The zero-copy reinterpretation in internal/query/format is the
		// single audited home for unsafe and reflect's header types.
		name:        "unsafe-confinement",
		imports:     []string{"unsafe"},
		dirs:        []string{"internal/query/format"},
		importMsg:   "import of %s outside internal/query/format",
		selectors:   []string{"reflect.SliceHeader", "reflect.StringHeader"},
		selectorMsg: "%s reinterpretation outside internal/query/format",
	},
	{
		// internal/query/format owns hashing and signing (the NWQ1 content
		// hash, the NWS1 envelope) and internal/bundlecache verifies
		// fetched entries; every other package consumes hashes as opaque
		// values through format.ContentHash / VerifyHash, whose one
		// identity is a hashed bundle's verified content hash.
		name:      "crypto-confinement",
		imports:   []string{"crypto/ed25519", "crypto/sha256"},
		dirs:      []string{"internal/query/format", "internal/bundlecache"},
		importMsg: "import of %s outside internal/query/format and internal/bundlecache (consume hashes through the format package)",
	},
	{
		// Parsing and compiling query text are load-time operations: a DSL
		// import in the serving stack means query text is interpreted per
		// document.
		name:      "dsl-confinement",
		imports:   []string{"repro/internal/query/dsl"},
		dirs:      []string{"internal/engine", "internal/serve", "internal/server"},
		deny:      true,
		importMsg: "serving hot path imports %s (parse and compile at load time, serve compiled automata)",
	},
	{
		// Product compilation can blow up exponentially in the member count
		// (the Section 3.2 product cost), so the serving stack consumes
		// planned bundles through the bundle API and never builds products.
		name:        "plan-confinement",
		imports:     []string{"repro/internal/query/plan"},
		dirs:        []string{"internal/engine", "internal/serve", "internal/server"},
		deny:        true,
		importMsg:   "serving stack imports %s (plan at load time, serve planned bundles through the bundle API)",
		selectors:   []string{"query.CompileProduct"},
		selectorMsg: "serving stack calls %s (product automata are built by the planner at load time)",
	},
}

// check reports the rule's violations in u, given whether u's directory is
// one of the rule's dirs.
func (c *confinement) check(u *unit, inDirs bool, report reportFunc) {
	if inDirs != c.deny {
		return
	}
	for _, file := range u.files {
		for _, imp := range file.Imports {
			path := strings.Trim(imp.Path.Value, `"`)
			if slices.Contains(c.imports, path) {
				report("%s: %s: "+c.importMsg, u.position(imp), c.name, path)
			}
		}
		if len(c.selectors) == 0 {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if pkg, ok := sel.X.(*ast.Ident); ok {
				if text := pkg.Name + "." + sel.Sel.Name; slices.Contains(c.selectors, text) {
					report("%s: %s: "+c.selectorMsg, u.position(sel), c.name, text)
				}
			}
			return true
		})
	}
}

// guardComment extracts the mutex name from a "guarded by <mu>" field
// comment.
var guardComment = regexp.MustCompile(`guarded by (\w+)`)

// analyzeLockedFields enforces "guarded by mu" field comments: a method
// touching such a field must lock that mutex on its own receiver somewhere
// in its body, or carry a //nwvet:locked annotation asserting external
// synchronization (construction, or the owning shard goroutine).
func analyzeLockedFields(u *unit, report reportFunc) {
	// struct type name -> guarded field name -> mutex field name
	guards := map[string]map[string]string{}
	for _, file := range u.files {
		ast.Inspect(file, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				return true
			}
			for _, f := range st.Fields.List {
				mu := guardMutexName(f.Comment)
				if mu == "" {
					mu = guardMutexName(f.Doc)
				}
				if mu == "" {
					continue
				}
				if guards[ts.Name.Name] == nil {
					guards[ts.Name.Name] = map[string]string{}
				}
				for _, nm := range f.Names {
					guards[ts.Name.Name][nm.Name] = mu
				}
			}
			return true
		})
	}
	if len(guards) == 0 {
		return
	}

	for _, file := range u.files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || fd.Recv == nil || len(fd.Recv.List) == 0 {
				continue
			}
			fields := guards[receiverTypeName(fd.Recv)]
			if fields == nil || hasDirective(fd.Doc, lockedDirective) {
				continue
			}
			recvName := ""
			if names := fd.Recv.List[0].Names; len(names) > 0 {
				recvName = names[0].Name
			}
			if recvName == "" || recvName == "_" {
				continue // cannot touch fields without a named receiver
			}
			locked := lockedMutexes(fd.Body, recvName)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				base, ok := sel.X.(*ast.Ident)
				if !ok || base.Name != recvName {
					return true
				}
				mu, guarded := fields[sel.Sel.Name]
				if guarded && !locked[mu] {
					report("%s: locked-field: %s touches %s.%s (guarded by %s) without holding the mutex",
						u.position(sel), fd.Name.Name, recvName, sel.Sel.Name, mu)
				}
				return true
			})
		}
	}
}

// guardMutexName pulls the mutex name out of a field's comment group.
func guardMutexName(cg *ast.CommentGroup) string {
	if cg == nil {
		return ""
	}
	if m := guardComment.FindStringSubmatch(cg.Text()); m != nil {
		return m[1]
	}
	return ""
}

// receiverTypeName unwraps a method receiver to its base type identifier.
func receiverTypeName(recv *ast.FieldList) string {
	t := recv.List[0].Type
	for {
		switch x := t.(type) {
		case *ast.StarExpr:
			t = x.X
		case *ast.IndexExpr:
			t = x.X
		case *ast.IndexListExpr:
			t = x.X
		case *ast.ParenExpr:
			t = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}

// lockedMutexes collects the mutex field names the body locks on the named
// receiver: recv.<mu>.Lock() or recv.<mu>.RLock() anywhere in the function.
func lockedMutexes(body *ast.BlockStmt, recvName string) map[string]bool {
	locked := map[string]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || (sel.Sel.Name != "Lock" && sel.Sel.Name != "RLock") {
			return true
		}
		muSel, ok := sel.X.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if base, ok := muSel.X.(*ast.Ident); ok && base.Name == recvName {
			locked[muSel.Sel.Name] = true
		}
		return true
	})
	return locked
}

// analyzeErrorDiscipline flags panic calls in the decode/validation
// packages: corrupted bytes must surface as returned errors, never as
// crashes.  Functions annotated //nwvet:allowpanic (Must* helpers whose
// contract is the panic) are exempt.
func analyzeErrorDiscipline(u *unit, report reportFunc) {
	for _, file := range u.files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || hasDirective(fd.Doc, allowPanicDirective) {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if ok && isIdentCall(call, "panic") {
					report("%s: error-discipline: %s panics — decode/validation paths must return errors (//nwvet:allowpanic to acknowledge)",
						u.position(call), fd.Name.Name)
				}
				return true
			})
		}
	}
}
