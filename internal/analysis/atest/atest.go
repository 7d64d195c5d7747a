// Package atest runs go/analysis analyzers without the go command. It
// is the one driver of the repository's contract analyzers: Run checks
// an analyzer against fixture packages laid out analysistest style
// (testdata/src/<importpath>/*.go, with // want "regexp" comments), and
// Module runs a set of analyzers over the packages of a Go module the
// way `go vet ./...` would and returns what they report.
//
// The loader parses and type-checks every package from source: module
// packages from the module tree, vendored ones from its vendor/
// directory, fixture packages from testdata/src, and everything else
// from GOROOT/src (the standard library's own vendored packages from
// GOROOT/src/vendor). go/build picks each package's files by build
// constraints for the host platform with cgo off, so no export data,
// module proxy or go command is needed.
//
// As under `go vet`, a module package is analyzed together with its
// in-package _test.go files, and its external _test package is
// type-checked against that test variant: when there is one, the
// external tests and every module package they import are checked
// afresh, with the variant in place of the package under test.
// Analyzer dependencies (Requires) run transitively, in topological
// order, with their results threaded through ResultOf. Facts flow
// from imported packages to importers: every package loaded, the
// standard library included, first gets the analyzers that declare
// FactTypes (ctrlflow's noReturn), so a call to os.Exit or t.Fatal
// ends a control-flow path here as it does under `go vet`.
//
// A // want comment attaches to the line it appears on and holds one
// or more Go-quoted regular expressions, each of which must match a
// distinct diagnostic reported on that line:
//
//	badCall() // want `exact diagnostic fragment` "another"
//
// Diagnostics without a matching want, and wants without a matching
// diagnostic, fail the test with the file:line of the mismatch.
package atest

import (
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"golang.org/x/tools/go/analysis"
)

// Run applies a (and its Requires closure) to each fixture package in
// pkgPaths, resolving them under testdata/src, and checks diagnostics
// against the fixtures' want comments.
func Run(t *testing.T, testdata string, a *analysis.Analyzer, pkgPaths ...string) {
	t.Helper()
	l := newLoader([]root{{dir: filepath.Join(testdata, "src")}}, []*analysis.Analyzer{a})
	for _, path := range pkgPaths {
		pkg, err := l.load(path, false)
		if err != nil {
			t.Fatalf("loading fixture package %s: %v", path, err)
		}
		diags, err := l.analyze(pkg, []*analysis.Analyzer{a})
		if err != nil {
			t.Fatal(err)
		}
		check(t, l.fset, pkg, diags)
	}
}

// A Diagnostic is one finding of Module, positioned in its file.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: [%s] %s", d.Pos, d.Analyzer, d.Message)
}

// Module runs analyzers over the packages in dirs, directories of the
// Go module rooted at modRoot given relative to it, and returns their
// diagnostics package by package, each package's sorted by position.
// Each package is analyzed with its in-package tests, and its external
// _test package after it. A package that fails to load or type-check
// is an error.
func Module(modRoot string, analyzers []*analysis.Analyzer, dirs ...string) ([]Diagnostic, error) {
	modPath, err := readModulePath(filepath.Join(modRoot, "go.mod"))
	if err != nil {
		return nil, err
	}
	l := newLoader([]root{
		{prefix: modPath, dir: modRoot},
		{dir: filepath.Join(modRoot, "vendor")},
	}, analyzers)
	var out []Diagnostic
	collect := func(pkg *loadedPkg) error {
		diags, err := l.analyze(pkg, analyzers)
		out = append(out, diags...)
		return err
	}
	for _, dir := range dirs {
		path := modPath
		if dir = filepath.ToSlash(filepath.Clean(dir)); dir != "." {
			path += "/" + dir
		}
		pkg, err := l.load(path, false)
		if err != nil {
			return nil, err
		}
		bp, xl := pkg.bp, l
		if len(bp.TestGoFiles) > 0 && len(bp.XTestGoFiles) > 0 {
			// The external tests import the test variant, and so must
			// every package of theirs that imports the package: they and
			// the variant get a view of their own.
			xl = l.view()
		}
		if len(bp.TestGoFiles) > 0 {
			files := append(append([]string(nil), bp.GoFiles...), bp.TestGoFiles...)
			if pkg, err = xl.check(path, bp.Dir, files, false); err != nil {
				return nil, err
			}
			if xl != l {
				xl.pkgs[path] = pkg
			}
		}
		if err := collect(pkg); err != nil {
			return nil, err
		}
		if len(bp.XTestGoFiles) == 0 {
			continue
		}
		xt, err := xl.check(path+"_test", bp.Dir, bp.XTestGoFiles, false)
		if err != nil {
			return nil, err
		}
		if err := collect(xt); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// readModulePath returns the module path a go.mod file declares.
func readModulePath(file string) (string, error) {
	data, err := os.ReadFile(file)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[0] == "module" {
			return f[1], nil
		}
	}
	return "", fmt.Errorf("%s: no module line", file)
}

// --- package loading ------------------------------------------------------

// A root maps the import paths under prefix ("" for every path) to
// directories under dir.
type root struct {
	prefix, dir string
}

type loadedPkg struct {
	path    string
	bp      *build.Package
	pkg     *types.Package
	files   []*ast.File
	info    *types.Info
	results map[*analysis.Analyzer]interface{}
}

type loader struct {
	fset  *token.FileSet
	ctxt  build.Context
	roots []root

	factAnalyzers []*analysis.Analyzer
	objectFacts   map[types.Object]map[reflect.Type]analysis.Fact
	packageFacts  map[*types.Package]map[reflect.Type]analysis.Fact

	std     map[string]*loadedPkg // GOROOT packages, shared with every view
	pkgs    map[string]*loadedPkg // the others, by import path
	loading map[string]bool
}

func newLoader(roots []root, analyzers []*analysis.Analyzer) *loader {
	ctxt := build.Default
	ctxt.CgoEnabled = false // cgo files need the cgo tool; the pure-Go variants declare the same API
	l := &loader{
		fset:         token.NewFileSet(),
		ctxt:         ctxt,
		roots:        roots,
		objectFacts:  map[types.Object]map[reflect.Type]analysis.Fact{},
		packageFacts: map[*types.Package]map[reflect.Type]analysis.Fact{},
		std:          map[string]*loadedPkg{},
		pkgs:         map[string]*loadedPkg{},
		loading:      map[string]bool{},
	}
	seen := map[*analysis.Analyzer]bool{}
	var visit func(a *analysis.Analyzer)
	visit = func(a *analysis.Analyzer) {
		if seen[a] {
			return
		}
		seen[a] = true
		for _, req := range a.Requires {
			visit(req)
		}
		if len(a.FactTypes) > 0 {
			l.factAnalyzers = append(l.factAnalyzers, a)
		}
	}
	for _, a := range analyzers {
		visit(a)
	}
	return l
}

// view returns a loader that shares l's GOROOT packages and facts and
// type-checks every other package afresh.
func (l *loader) view() *loader {
	v := *l
	v.pkgs, v.loading = map[string]*loadedPkg{}, map[string]bool{}
	return &v
}

// resolve maps an import path, imported from a GOROOT package or not,
// to the path the package is type-checked under and its directory.
func (l *loader) resolve(path string, fromGOROOT bool) (canonical, dir string, inGOROOT bool) {
	goroot := filepath.Join(l.ctxt.GOROOT, "src")
	if fromGOROOT {
		if d := filepath.Join(goroot, "vendor", filepath.FromSlash(path)); isDir(d) {
			return "vendor/" + path, d, true
		}
	} else {
		for _, r := range l.roots {
			rel, ok := path, r.prefix == ""
			if !ok && (path == r.prefix || strings.HasPrefix(path, r.prefix+"/")) {
				rel, ok = strings.TrimPrefix(strings.TrimPrefix(path, r.prefix), "/"), true
			}
			if d := filepath.Join(r.dir, filepath.FromSlash(rel)); ok && isDir(d) {
				return path, d, false
			}
		}
	}
	return path, filepath.Join(goroot, filepath.FromSlash(path)), true
}

func isDir(dir string) bool {
	fi, err := os.Stat(dir)
	return err == nil && fi.IsDir()
}

// load returns the package at import path, type-checked with the
// files go/build selects and given the facts of the fact analyzers.
func (l *loader) load(path string, fromGOROOT bool) (*loadedPkg, error) {
	canonical, dir, inGOROOT := l.resolve(path, fromGOROOT)
	cache := l.pkgs
	if inGOROOT {
		cache = l.std
	}
	if p, ok := cache[canonical]; ok {
		return p, nil
	}
	if l.loading[canonical] {
		return nil, fmt.Errorf("import cycle through %s", canonical)
	}
	l.loading[canonical] = true
	defer delete(l.loading, canonical)

	bp, err := l.ctxt.ImportDir(dir, 0)
	if err != nil {
		return nil, fmt.Errorf("package %s: %w", canonical, err)
	}
	p, err := l.check(canonical, dir, bp.GoFiles, inGOROOT)
	if err != nil {
		return nil, err
	}
	p.bp = bp
	if err := l.runAll(p, l.factAnalyzers, nil); err != nil {
		return nil, err
	}
	if inGOROOT {
		// Only the facts and the types of a GOROOT package are read
		// after this; let its syntax go.
		p.files, p.info, p.results = nil, nil, nil
	}
	cache[canonical] = p
	return p, nil
}

// check parses and type-checks the named files of dir as package path.
func (l *loader) check(path, dir string, names []string, inGOROOT bool) (*loadedPkg, error) {
	if len(names) == 0 {
		return nil, fmt.Errorf("no Go files in %s", dir)
	}
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:        map[ast.Expr]types.TypeAndValue{},
		Instances:    map[*ast.Ident]types.Instance{},
		Defs:         map[*ast.Ident]types.Object{},
		Uses:         map[*ast.Ident]types.Object{},
		Implicits:    map[ast.Node]types.Object{},
		Selections:   map[*ast.SelectorExpr]*types.Selection{},
		Scopes:       map[ast.Node]*types.Scope{},
		FileVersions: map[*ast.File]string{},
	}
	conf := types.Config{
		Importer: importerFunc(func(imp string) (*types.Package, error) {
			if imp == "unsafe" {
				return types.Unsafe, nil
			}
			p, err := l.load(imp, inGOROOT)
			if err != nil {
				return nil, err
			}
			return p.pkg, nil
		}),
		Sizes: types.SizesFor("gc", l.ctxt.GOARCH),
	}
	pkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %w", path, err)
	}
	return &loadedPkg{path: path, pkg: pkg, files: files, info: info, results: map[*analysis.Analyzer]interface{}{}}, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// --- analyzer execution ---------------------------------------------------

// analyze runs analyzers (and their Requires closure) over pkg and
// returns what analyzers themselves report, sorted by position.
func (l *loader) analyze(pkg *loadedPkg, analyzers []*analysis.Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	report := map[*analysis.Analyzer]bool{}
	for _, a := range analyzers {
		report[a] = true
	}
	err := l.runAll(pkg, analyzers, func(a *analysis.Analyzer, d analysis.Diagnostic) {
		if report[a] {
			diags = append(diags, Diagnostic{Pos: l.fset.Position(d.Pos), Analyzer: a.Name, Message: d.Message})
		}
	})
	sort.SliceStable(diags, func(i, j int) bool {
		a, b := diags[i].Pos, diags[j].Pos
		return a.Filename < b.Filename || a.Filename == b.Filename && a.Offset < b.Offset
	})
	return diags, err
}

// runAll runs analyzers and their Requires closure over pkg, each at
// most once per package, passing what they report to report.
func (l *loader) runAll(pkg *loadedPkg, analyzers []*analysis.Analyzer, report func(*analysis.Analyzer, analysis.Diagnostic)) error {
	var errs []error
	var run func(an *analysis.Analyzer) interface{}
	run = func(an *analysis.Analyzer) interface{} {
		if r, ok := pkg.results[an]; ok {
			return r
		}
		deps := map[*analysis.Analyzer]interface{}{}
		for _, req := range an.Requires {
			deps[req] = run(req)
		}
		pass := &analysis.Pass{
			Analyzer:   an,
			Fset:       l.fset,
			Files:      pkg.files,
			Pkg:        pkg.pkg,
			TypesInfo:  pkg.info,
			TypesSizes: types.SizesFor("gc", l.ctxt.GOARCH),
			ResultOf:   deps,
			ReadFile:   os.ReadFile,
			Report: func(d analysis.Diagnostic) {
				if report != nil {
					report(an, d)
				}
			},
			ImportObjectFact: func(obj types.Object, fact analysis.Fact) bool {
				if f, ok := l.objectFacts[obj][reflect.TypeOf(fact)]; ok {
					copyFact(fact, f)
					return true
				}
				return false
			},
			ExportObjectFact: func(obj types.Object, fact analysis.Fact) {
				if l.objectFacts[obj] == nil {
					l.objectFacts[obj] = map[reflect.Type]analysis.Fact{}
				}
				l.objectFacts[obj][reflect.TypeOf(fact)] = fact
			},
			ImportPackageFact: func(p *types.Package, fact analysis.Fact) bool {
				if f, ok := l.packageFacts[p][reflect.TypeOf(fact)]; ok {
					copyFact(fact, f)
					return true
				}
				return false
			},
			ExportPackageFact: func(fact analysis.Fact) {
				if l.packageFacts[pkg.pkg] == nil {
					l.packageFacts[pkg.pkg] = map[reflect.Type]analysis.Fact{}
				}
				l.packageFacts[pkg.pkg][reflect.TypeOf(fact)] = fact
			},
			AllObjectFacts: func() []analysis.ObjectFact {
				var out []analysis.ObjectFact
				for obj, m := range l.objectFacts {
					for _, f := range m {
						out = append(out, analysis.ObjectFact{Object: obj, Fact: f})
					}
				}
				return out
			},
			AllPackageFacts: func() []analysis.PackageFact {
				var out []analysis.PackageFact
				for p, m := range l.packageFacts {
					for _, f := range m {
						out = append(out, analysis.PackageFact{Package: p, Fact: f})
					}
				}
				return out
			},
		}
		res, err := an.Run(pass)
		if err != nil {
			errs = append(errs, fmt.Errorf("analyzer %s failed on %s: %w", an.Name, pkg.path, err))
		}
		pkg.results[an] = res
		return res
	}
	for _, a := range analyzers {
		run(a)
	}
	return errors.Join(errs...)
}

func copyFact(dst, src analysis.Fact) {
	reflect.ValueOf(dst).Elem().Set(reflect.ValueOf(src).Elem())
}

// --- want expectations ----------------------------------------------------

var wantRe = regexp.MustCompile("// want (.*)$")

type expectation struct {
	file    string
	line    int
	re      *regexp.Regexp
	raw     string
	matched bool
}

func check(t *testing.T, fset *token.FileSet, pkg *loadedPkg, diags []Diagnostic) {
	t.Helper()
	var wants []*expectation
	for _, f := range pkg.files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := fset.Position(c.Pos())
				for _, raw := range splitQuoted(t, pos, m[1]) {
					re, err := regexp.Compile(raw)
					if err != nil {
						t.Fatalf("%s: bad want regexp %q: %v", pos, raw, err)
					}
					wants = append(wants, &expectation{file: pos.Filename, line: pos.Line, re: re, raw: raw})
				}
			}
		}
	}

	for _, d := range diags {
		pos := d.Pos
		found := false
		for _, w := range wants {
			if !w.matched && w.file == pos.Filename && w.line == pos.Line && w.re.MatchString(d.Message) {
				w.matched = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("%s: unexpected diagnostic: %s", pos, d.Message)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: no diagnostic matched want %q", w.file, w.line, w.raw)
		}
	}
}

// splitQuoted parses the payload of a want comment: a space-separated
// sequence of Go-quoted ("...") or backquoted (`...`) strings.
func splitQuoted(t *testing.T, pos token.Position, s string) []string {
	t.Helper()
	var out []string
	s = strings.TrimSpace(s)
	for s != "" {
		var quote byte = s[0]
		if quote != '"' && quote != '`' {
			t.Fatalf("%s: malformed want payload at %q (expected quoted regexp)", pos, s)
		}
		end := strings.IndexByte(s[1:], quote)
		if end < 0 {
			t.Fatalf("%s: unterminated want regexp in %q", pos, s)
		}
		tok := s[:end+2]
		if quote == '"' {
			unq, err := strconv.Unquote(tok)
			if err != nil {
				t.Fatalf("%s: bad want string %q: %v", pos, tok, err)
			}
			out = append(out, unq)
		} else {
			out = append(out, tok[1:len(tok)-1])
		}
		s = strings.TrimSpace(s[end+2:])
	}
	return out
}
