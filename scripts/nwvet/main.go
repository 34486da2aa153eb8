// Command nwvet is the repository's static-analysis suite: a multi-analyzer
// driver built on go/parser, go/ast, and go/types alone (no module
// dependencies), run in CI as `go run ./scripts/nwvet ./...`.
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
//     and variable of a serving package (exportDisciplineDirs) is
//     referenced by non-test Go outside its package — any file the walk
//     reaches, the separate benchmark module included — or is named by a
//     passing identifier's signature or field types, or is a constant of a
//     passing named type, or carries //nwvet:oracle naming the test that
//     uses it.  Methods match by name, so the rule can miss an unused
//     method but never flags a used one.
//
// The driver also carries the repository's documentation invariants, folded
// in from the retired repolint command: package doc comments, exported-
// identifier doc comments, relative Markdown link targets, the
// docs/EXPERIMENTS.md index table and the committed BENCH_E*.json baselines
// against experiments.Registry.
//
// It prints one line per violation and exits 1 if there are any, 2 on
// infrastructure errors, and prints "nwvet: ok" otherwise.
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// reportFunc records one formatted violation line.
type reportFunc func(format string, args ...any)

// unit is one package directory's worth of parsed, leniently type-checked
// non-test Go files.
type unit struct {
	dir   string // slash-separated, relative to the walk root
	fset  *token.FileSet
	paths []string // parallel to files
	files []*ast.File
	info  *types.Info
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

	units, err := loadUnits(root)
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
	analyzeExportDiscipline(units, exportDisciplineDirs, report)
	if err := lintMarkdownLinks(root, report); err != nil {
		return nil, err
	}
	if err := lintExperimentIndex(root, report); err != nil {
		return nil, err
	}
	if err := lintBenchArtifacts(root, report); err != nil {
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
// group leniently (missing cross-package information is tolerated; the
// analyzers degrade to their syntactic cores where types are unresolved).
func loadUnits(root string) ([]*unit, error) {
	fset := token.NewFileSet()
	byDir := map[string]*unit{}
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
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
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
		return nil, err
	}
	units := make([]*unit, 0, len(byDir))
	for _, u := range byDir {
		u.typecheck()
		units = append(units, u)
	}
	sort.Slice(units, func(i, j int) bool { return units[i].dir < units[j].dir })
	return units, nil
}

// typecheck runs go/types over the unit with every error swallowed and all
// imports stubbed out: same-package types resolve, cross-package ones come
// out invalid, and the analyzers treat "unresolved" as "no finding".
func (u *unit) typecheck() {
	u.info = &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{
		Error:       func(error) {}, // lenient: partial information is fine
		Importer:    &stubImporter{cache: map[string]*types.Package{}},
		FakeImportC: true,
	}
	// The returned error repeats what Error already swallowed.
	conf.Check(u.dir, u.fset, u.files, u.info) //nolint:errcheck
}

// stubImporter satisfies every import with an empty, incomplete package:
// references into it fail to resolve, which the lenient config tolerates.
type stubImporter struct {
	cache map[string]*types.Package
}

// Import returns (and memoizes) the empty stand-in package for path.
func (im *stubImporter) Import(path string) (*types.Package, error) {
	if p, ok := im.cache[path]; ok {
		return p, nil
	}
	name := path
	if i := strings.LastIndexByte(name, '/'); i >= 0 {
		name = name[i+1:]
	}
	p := types.NewPackage(path, name)
	p.MarkComplete() // go/types drops an incomplete import, and its PkgName with it
	im.cache[path] = p
	return p, nil
}

// position renders a file:line anchor for a node in the unit.
func (u *unit) position(n ast.Node) string {
	p := u.fset.Position(n.Pos())
	return fmt.Sprintf("%s:%d", p.Filename, p.Line)
}
