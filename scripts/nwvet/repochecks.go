// Documentation and repository-hygiene checks, folded in from the retired
// scripts/repolint command so CI has a single static-analysis entry point:
// package and exported-identifier doc comments, relative Markdown link
// targets, the experiment index, and the committed benchmark baselines.
package main

import (
	"fmt"
	"go/ast"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"

	"repro/internal/experiments"
)

// checkDocComments enforces the documentation invariants on one package
// directory: some file documents the package clause, and every exported
// top-level identifier carries a doc comment.
func checkDocComments(u *unit, report reportFunc) {
	documented := false
	for _, file := range u.files {
		if file.Doc != nil && strings.TrimSpace(file.Doc.Text()) != "" {
			documented = true
		}
	}
	if !documented && len(u.paths) > 0 {
		report("%s: package in %s has no package doc comment", u.paths[0], u.dir)
	}
	for i, file := range u.files {
		lintDecls(u.fset, u.paths[i], file, report)
	}
}

// lintDecls reports exported top-level identifiers without doc comments.
func lintDecls(fset *token.FileSet, path string, file *ast.File, report reportFunc) {
	exportedTypes := map[string]bool{}
	for _, decl := range file.Decls {
		if gd, ok := decl.(*ast.GenDecl); ok && gd.Tok == token.TYPE {
			for _, spec := range gd.Specs {
				if ts, ok := spec.(*ast.TypeSpec); ok && ts.Name.IsExported() {
					exportedTypes[ts.Name.Name] = true
				}
			}
		}
	}
	pos := func(n ast.Node) string {
		p := fset.Position(n.Pos())
		return fmt.Sprintf("%s:%d", path, p.Line)
	}
	for _, decl := range file.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if !d.Name.IsExported() {
				continue
			}
			if d.Recv != nil && !receiverIsExported(d.Recv, exportedTypes) {
				continue
			}
			if d.Doc == nil || strings.TrimSpace(d.Doc.Text()) == "" {
				report("%s: exported %s %s has no doc comment", pos(d), funcKind(d), d.Name.Name)
			}
		case *ast.GenDecl:
			groupDoc := d.Doc != nil && strings.TrimSpace(d.Doc.Text()) != ""
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() && !groupDoc && (s.Doc == nil || strings.TrimSpace(s.Doc.Text()) == "") {
						report("%s: exported type %s has no doc comment", pos(s), s.Name.Name)
					}
				case *ast.ValueSpec:
					if groupDoc || (s.Doc != nil && strings.TrimSpace(s.Doc.Text()) != "") ||
						(s.Comment != nil && strings.TrimSpace(s.Comment.Text()) != "") {
						continue
					}
					for _, name := range s.Names {
						if name.IsExported() {
							report("%s: exported %s %s has no doc comment", pos(s), strings.ToLower(d.Tok.String()), name.Name)
						}
					}
				}
			}
		}
	}
}

// funcKind distinguishes methods from functions in reports.
func funcKind(d *ast.FuncDecl) string {
	if d.Recv != nil {
		return "method"
	}
	return "function"
}

// receiverIsExported reports whether a method's receiver type is exported in
// the same file's terms (methods on unexported types are not part of the
// package API).
func receiverIsExported(recv *ast.FieldList, exported map[string]bool) bool {
	if len(recv.List) == 0 {
		return false
	}
	t := recv.List[0].Type
	for {
		switch x := t.(type) {
		case *ast.StarExpr:
			t = x.X
		case *ast.IndexExpr:
			t = x.X
		case *ast.IndexListExpr:
			t = x.X
		case *ast.Ident:
			return exported[x.Name] || x.IsExported()
		default:
			return false
		}
	}
}

// experimentRow matches one docs/EXPERIMENTS.md index table row
// ("| E21 | summary |"), capturing the ID and the summary cell.
var experimentRow = regexp.MustCompile(`(?m)^\|\s*(E\d+)\s*\|(.*)\|\s*$`)

// mdUnescape undoes the backslash escapes the index table needs for
// summaries containing table or link punctuation.
var mdUnescape = strings.NewReplacer(`\|`, `|`, `\[`, `[`, `\]`, `]`)

// lintExperimentIndex cross-checks experiments.Registry against the index
// table of docs/EXPERIMENTS.md: every registered experiment must be
// documented with its registry summary (the line `nwbench -list` prints),
// and every documented ID must be registered.
func lintExperimentIndex(root string, report reportFunc) error {
	path := filepath.Join(root, "docs", "EXPERIMENTS.md")
	body, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("experiment index: %w", err)
	}
	documented := map[string]string{}
	for _, m := range experimentRow.FindAllStringSubmatch(string(body), -1) {
		documented[m[1]] = mdUnescape.Replace(strings.TrimSpace(m[2]))
	}
	registered := map[string]bool{}
	for _, e := range experiments.Registry {
		registered[e.ID] = true
		summary, ok := documented[e.ID]
		switch {
		case !ok:
			report("%s: experiment %s is in experiments.Registry but missing from the index table", path, e.ID)
		case summary != e.Summary:
			report("%s: experiment %s is documented as %q but its registry summary is %q", path, e.ID, summary, e.Summary)
		}
	}
	for id := range documented {
		if !registered[id] {
			report("%s: experiment %s is documented but missing from experiments.Registry", path, id)
		}
	}
	return nil
}

// lintBenchArtifacts cross-checks the committed BENCH_E*.json benchmark
// baselines at the repository root against the experiments.Registry entries
// marked Artifact: a file whose experiment no longer records an artifact is
// stale, and an artifact-recording experiment without a committed baseline
// leaves the bench-regression gate's fallback without a point of
// comparison.
func lintBenchArtifacts(root string, report reportFunc) error {
	files, err := filepath.Glob(filepath.Join(root, "BENCH_E*.json"))
	if err != nil {
		return fmt.Errorf("bench artifacts: %w", err)
	}
	committed := map[string]bool{}
	for _, f := range files {
		committed[strings.TrimSuffix(strings.TrimPrefix(filepath.Base(f), "BENCH_"), ".json")] = true
	}
	for _, e := range experiments.Registry {
		if !e.Artifact {
			continue
		}
		if !committed[e.ID] {
			report("%s: experiment %s records a benchmark artifact but BENCH_%s.json is not committed at the repository root",
				root, e.ID, e.ID)
		}
		delete(committed, e.ID)
	}
	for id := range committed {
		report("%s: stale benchmark artifact — %s is not an experiments.Registry artifact",
			filepath.Join(root, "BENCH_"+id+".json"), id)
	}
	return nil
}

// mdLink matches the target of one inline Markdown link.
var mdLink = regexp.MustCompile(`\]\(([^)\s]+)\)`)

// stripCode blanks out fenced code blocks and inline code spans so that
// bracket sequences inside code are not mistaken for Markdown links.
func stripCode(s string) string {
	var out strings.Builder
	inFence := false
	for _, line := range strings.SplitAfter(s, "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			inFence = !inFence
			out.WriteString("\n")
			continue
		}
		if inFence {
			out.WriteString("\n")
			continue
		}
		// Drop inline `code` spans within the line.
		for {
			open := strings.IndexByte(line, '`')
			if open < 0 {
				break
			}
			close := strings.IndexByte(line[open+1:], '`')
			if close < 0 {
				break
			}
			line = line[:open] + line[open+1+close+1:]
		}
		out.WriteString(line)
	}
	return out.String()
}

// lintMarkdownLinks checks that every relative link target in the
// repository's Markdown files exists.
func lintMarkdownLinks(root string, report reportFunc) error {
	return filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == ".git" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(strings.ToLower(path), ".md") {
			return nil
		}
		body, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range mdLink.FindAllStringSubmatch(stripCode(string(body)), -1) {
			target := m[1]
			if strings.Contains(target, "://") || strings.HasPrefix(target, "mailto:") || strings.HasPrefix(target, "#") {
				continue
			}
			if i := strings.IndexByte(target, '#'); i >= 0 {
				target = target[:i]
			}
			if target == "" {
				continue
			}
			resolved := filepath.Join(filepath.Dir(path), target)
			if _, err := os.Stat(resolved); err != nil {
				report("%s: broken link %q", path, m[1])
			}
		}
		return nil
	})
}

// patternFlag matches one -run or -fuzz flag of a go test command line and
// its pattern, quoted or bare.
var patternFlag = regexp.MustCompile(`-(run|fuzz)[ =](?:'([^']*)'|"([^"]*)"|(\S+))`)

// testToken matches a test or fuzz target name inside a pattern, with the $
// that anchors its end if there is one.
var testToken = regexp.MustCompile(`(?:Test|Fuzz)\w+\$?`)

// lintCIRunPatterns checks that every test or fuzz target name a -run or
// -fuzz pattern of the CI workflow spells prefix-matches one some test file
// declares, or matches one exactly when the pattern anchors its end: go
// test passes with "no tests to run" once the test a step names is gone,
// and a -fuzz pattern matching no target passes silently, so a dedicated
// step would otherwise go on running nothing.
func lintCIRunPatterns(root string, tests map[string]bool, report reportFunc) error {
	path := filepath.Join(root, ".github", "workflows", "ci.yml")
	body, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("ci run patterns: %w", err)
	}
	for i, line := range strings.Split(string(body), "\n") {
		for _, m := range patternFlag.FindAllStringSubmatch(line, -1) {
			for _, token := range testToken.FindAllString(m[2]+m[3]+m[4], -1) {
				name, anchored := strings.CutSuffix(token, "$")
				if anchored && !tests[name] || !anchored && !declaresPrefix(tests, name) {
					report("%s:%d: -%s pattern names %s, which no test file declares", path, i+1, m[1], name)
				}
			}
		}
	}
	return nil
}

// declaresPrefix reports whether some declared test's name starts with
// prefix.
func declaresPrefix(tests map[string]bool, prefix string) bool {
	for name := range tests {
		if strings.HasPrefix(name, prefix) {
			return true
		}
	}
	return false
}
