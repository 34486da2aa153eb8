// Command nwvet is the repository's static-analysis suite: a multi-analyzer
// driver built on go/parser, go/ast, go/types and the compiler's export data
// for the standard library (no module dependencies), run in CI as
// `go run ./scripts/nwvet ./...`.
//
// Project-specific analyzers (documented in docs/ANALYZERS.md):
//
//   - hotpath-alloc: functions annotated //nwvet:hotpath — the DNWA runner
//     step loop, the product runner's Verdict bit read, the engine feed
//     path, the tokenizer loop —
//     may not contain allocating constructs: make/new, map or slice
//     composite literals, closures, fmt calls, string or []T conversions,
//     appends that do not feed back into their source slice, assignments
//     into maps, or calls that box a concrete argument into an interface
//     parameter.
//   - unsafe-confinement: the unsafe package and reflect's SliceHeader /
//     StringHeader reinterpretation live only in internal/query/format,
//     where the zero-copy bundle loader is audited; everywhere else they
//     are violations.
//   - crypto-confinement: the content-hash and signature primitives
//     (crypto/sha256, crypto/ed25519) are imported only by
//     internal/query/format (which owns hashing and signing) and
//     internal/bundlecache (which verifies fetched entries); every other
//     package consumes hashes through the format package's helpers.
//   - dsl-confinement: the serving hot-path packages (internal/engine,
//     internal/serve, internal/server) may not import the query DSL
//     compiler (repro/internal/query/dsl) — query text is parsed and
//     compiled at load time, the stack serves compiled automata.
//   - plan-confinement: the same serving packages may not construct
//     product automata — neither importing the query planner
//     (repro/internal/query/plan) nor calling query.CompileProduct.
//     Product compilation is a load-time planning decision with a
//     potentially exponential state cost; the serving stack consumes
//     planned bundles through the bundle API.
//   - locked-field: struct fields documented "guarded by mu" may only be
//     touched by methods that lock that mutex (or are annotated
//     //nwvet:locked as externally synchronized, e.g. the owning shard
//     goroutine).
//   - error-discipline: decode and validation paths in internal/query
//     return errors; panic is a violation unless the function is annotated
//     //nwvet:allowpanic.
//   - export-discipline: every exported function, method, type, constant
//     and variable of a non-main package is referenced by non-test Go
//     outside its package — any file the walk reaches, the separate
//     benchmark module included — or is named by a passing identifier's
//     signature or field types, or is a constant of a passing named type,
//     or is a method that implements a live interface, or carries
//     //nwvet:oracle naming the test that uses it.  References resolve by
//     type, so a method is matched through its receiver, never by name.
//     The same pass holds every unexported function and method to
//     liveness: it is live when a live function refers to it, to a
//     fixpoint from the roots (the passing exports, main and init,
//     functions a package-level initializer names, //nwvet:oracle
//     functions), or when it implements a live interface method; anything
//     else only tests reach, and is a finding.  Every test an
//     //nwvet:oracle reason names must be declared in a _test.go file.
//
// The driver also carries the repository's documentation invariants, folded
// in from the retired repolint command: package doc comments, exported-
// identifier doc comments, relative Markdown link targets, the
// docs/EXPERIMENTS.md index table and the committed BENCH_E*.json baselines
// against experiments.Registry; and it checks that every test or fuzz
// target a -run or -fuzz pattern of the CI workflow names is still declared.
//
// It prints one line per violation and exits 1 if there are any, 2 on
// infrastructure errors, and prints "nwvet: ok" otherwise.
package main

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// reportFunc records one formatted violation line.
type reportFunc func(format string, args ...any)

// unit is one package directory's worth of parsed, type-checked non-test Go
// files.
type unit struct {
	dir   string // slash-separated, relative to the walk root
	path  string // import path, from the nearest go.mod; dir when there is none
	fset  *token.FileSet
	paths []string // parallel to files
	files []*ast.File
	info  *types.Info
	pkg   *types.Package // nil until checked; checking marks it in progress
}

// errorDisciplineDirs scopes the error-discipline analyzer.  (The
// confinement rules carry their own directories; hotpath-alloc and
// locked-field need none — they trigger on //nwvet:hotpath annotations and
// "guarded by" field comments wherever they appear.)
var errorDisciplineDirs = []string{"internal/query", "internal/query/format"}

func main() {
	root := "."
	for _, a := range os.Args[1:] {
		if a == "./..." || a == "..." {
			continue // package-pattern spelling of "the whole repository"
		}
		root = strings.TrimSuffix(a, "/...")
	}
	problems, err := runNwvet(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "nwvet:", err)
		os.Exit(2)
	}
	for _, p := range problems {
		fmt.Println(p)
	}
	if len(problems) > 0 {
		fmt.Printf("nwvet: %d problems\n", len(problems))
		os.Exit(1)
	}
	fmt.Println("nwvet: ok")
}

// runNwvet loads every package directory under root, runs the code
// analyzers and the folded documentation checks, and returns the collected
// violation lines.  A non-nil error is infrastructure failure (unparsable
// tree, unreadable files), not a finding.
func runNwvet(root string) ([]string, error) {
	var problems []string
	report := func(format string, args ...any) {
		problems = append(problems, fmt.Sprintf(format, args...))
	}

	units, tests, err := loadUnits(root)
	if err != nil {
		return nil, err
	}
	for _, u := range units {
		analyzeHotpathAlloc(u, report)
		for i := range confinements {
			confinements[i].check(u, dirIn(u.dir, confinements[i].dirs), report)
		}
		analyzeLockedFields(u, report)
		if dirIn(u.dir, errorDisciplineDirs) {
			analyzeErrorDiscipline(u, report)
		}
		checkDocComments(u, report)
	}
	analyzeExportDiscipline(units, tests, report)
	if err := lintMarkdownLinks(root, report); err != nil {
		return nil, err
	}
	if err := lintExperimentIndex(root, report); err != nil {
		return nil, err
	}
	if err := lintBenchArtifacts(root, report); err != nil {
		return nil, err
	}
	if err := lintCIRunPatterns(root, tests, report); err != nil {
		return nil, err
	}
	return problems, nil
}

// dirIn reports whether dir is one of the slash-separated targets, matched
// as a path suffix so the walk root's spelling does not matter.
func dirIn(dir string, targets []string) bool {
	dir = filepath.ToSlash(dir)
	for _, t := range targets {
		if dir == t || strings.HasSuffix(dir, "/"+t) {
			return true
		}
	}
	return false
}

// loadUnits walks root, parses every non-test Go file outside .git, hidden,
// and testdata directories, groups them per directory, and type-checks each
// group against real types: an import of a walked package resolves to that
// package's own check, anything else (the standard library) to its compiler
// export data.  Errors are tolerated; an expression that still does not
// resolve is "no finding" to the analyzers.  Of the test files it keeps only
// the names of their top-level functions, the tests an //nwvet:oracle
// annotation or a CI -run pattern may cite.
func loadUnits(root string) ([]*unit, map[string]bool, error) {
	fset := token.NewFileSet()
	byDir := map[string]*unit{}
	tests := map[string]bool{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != root && (name == ".git" || name == "testdata" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		if strings.HasSuffix(path, "_test.go") {
			file, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
			if err != nil {
				return fmt.Errorf("%s: %w", path, err)
			}
			for _, decl := range file.Decls {
				if d, ok := decl.(*ast.FuncDecl); ok && d.Recv == nil {
					tests[d.Name.Name] = true
				}
			}
			return nil
		}
		file, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		dir := filepath.Dir(path)
		u := byDir[dir]
		if u == nil {
			u = &unit{dir: dir, fset: fset}
			byDir[dir] = u
		}
		u.paths = append(u.paths, path)
		u.files = append(u.files, file)
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	units := make([]*unit, 0, len(byDir))
	im := &walkImporter{byPath: map[string]*unit{}}
	modules := map[string]string{} // directory -> module path ("" if none)
	for _, u := range byDir {
		if u.path, err = importPath(u.dir, modules); err != nil {
			return nil, nil, err
		}
		im.byPath[u.path] = u
		units = append(units, u)
	}
	sort.Slice(units, func(i, j int) bool { return units[i].dir < units[j].dir })
	if im.export, err = exportData(root, fset, units, im.byPath); err != nil {
		return nil, nil, err
	}
	for _, u := range units {
		im.check(u)
	}
	return units, tests, nil
}

// importPath names a package directory by the module path of the nearest
// go.mod at or above it, memoizing each directory's module in modules.
func importPath(dir string, modules map[string]string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for d, rel := abs, ""; ; d, rel = filepath.Dir(d), filepath.Base(d)+"/"+rel {
		mod, ok := modules[d]
		if !ok {
			mod = modulePath(filepath.Join(d, "go.mod"))
			modules[d] = mod
		}
		if mod != "" {
			return strings.TrimSuffix(mod+"/"+rel, "/"), nil
		}
		if filepath.Dir(d) == d {
			return filepath.ToSlash(dir), nil
		}
	}
}

// modulePath returns the module path a go.mod declares, or "" when the file
// is missing or declares none.
func modulePath(gomod string) string {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`)
		}
	}
	return ""
}

// exportData returns an importer that reads the compiler's export data for
// every package the units import from outside the walk, located by one
// `go list -export` run in root.  The go command builds what the build cache
// lacks and fetches nothing: the walk imports only the standard library and
// itself.
func exportData(root string, fset *token.FileSet, units []*unit, walked map[string]*unit) (types.Importer, error) {
	outside := map[string]bool{}
	for _, u := range units {
		for _, file := range u.files {
			for _, spec := range file.Imports {
				if path, err := strconv.Unquote(spec.Path.Value); err == nil && walked[path] == nil && path != "unsafe" && path != "C" {
					outside[path] = true
				}
			}
		}
	}
	files := map[string]string{} // import path -> export data file
	if len(outside) > 0 {
		args := []string{"list", "-e", "-export", "-f", "{{.ImportPath}}\t{{.Export}}", "--"}
		for path := range outside {
			args = append(args, path)
		}
		cmd := exec.Command("go", args...)
		cmd.Dir = root
		cmd.Env = append(os.Environ(), "GOPROXY=off")
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("go list -export: %w", err)
		}
		for _, line := range strings.Split(string(out), "\n") {
			if path, file, ok := strings.Cut(line, "\t"); ok && file != "" {
				files[path] = file
			}
		}
	}
	return importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := files[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %s", path)
		}
		return os.Open(file)
	}), nil
}

// walkImporter resolves an import of a walked package to that package's
// own check, and any other import through export data, so one object stands
// for each declaration across the whole walk.
type walkImporter struct {
	byPath map[string]*unit
	export types.Importer
}

// Import returns the checked package for path, checking a walked package
// first if it has not been.
func (im *walkImporter) Import(path string) (*types.Package, error) {
	u := im.byPath[path]
	if u == nil {
		return im.export.Import(path)
	}
	if u.pkg == nil {
		im.check(u)
	}
	if !u.pkg.Complete() {
		return nil, fmt.Errorf("import cycle through %s", path)
	}
	return u.pkg, nil
}

// check type-checks the unit once, with every error swallowed: a build-tag
// variant redeclares its twin, and a fixture may import what does not exist.
func (im *walkImporter) check(u *unit) {
	if u.pkg != nil {
		return
	}
	u.pkg = types.NewPackage(u.path, u.files[0].Name.Name) // in progress
	u.info = &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Uses:  map[*ast.Ident]types.Object{},
	}
	conf := types.Config{
		Error:       func(error) {}, // lenient: partial information is fine
		Importer:    im,
		FakeImportC: true,
	}
	pkg, _ := conf.Check(u.path, u.fset, u.files, u.info) // the error repeats what Error swallowed
	pkg.MarkComplete()
	u.pkg = pkg
}

// position renders a file:line anchor for a node in the unit.
func (u *unit) position(n ast.Node) string {
	p := u.fset.Position(n.Pos())
	return fmt.Sprintf("%s:%d", p.Filename, p.Line)
}
