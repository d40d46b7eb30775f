package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

// A Package is one loaded, parsed, and type-checked compilation unit. The
// in-package test files are folded into the same unit; external _test
// packages load as their own unit with an ImportPath suffixed "_test",
// type-checked against that unit as the go command builds the test binary
// (see testVariants).
type Package struct {
	ImportPath string
	Dir        string
	Files      []*ast.File
	Pkg        *types.Package
	Info       *types.Info
}

// listedPackage is the subset of `go list -json` output the loader needs.
type listedPackage struct {
	Dir          string
	ImportPath   string
	Name         string
	GoFiles      []string
	CgoFiles     []string
	TestGoFiles  []string
	XTestGoFiles []string
	ForTest      string
	DepOnly      bool
	Incomplete   bool
	Error        *struct{ Err string }
}

// Loader loads packages for analysis. It shells out to `go list` for
// package metadata and type-checks everything from source with the
// standard library's source importer, so it works without a module cache
// or network access. The process working directory must be inside the
// module being analyzed (the source importer resolves module-local import
// paths through the go command).
type Loader struct {
	// IncludeTests folds *_test.go files (both in-package and external
	// test packages) into the analysis. Default true in NewLoader.
	IncludeTests bool

	fset *token.FileSet
	imp  types.Importer
}

// NewLoader returns a Loader with a fresh FileSet and importer.
func NewLoader() *Loader {
	fset := token.NewFileSet()
	return &Loader{
		IncludeTests: true,
		fset:         fset,
		imp:          importer.ForCompiler(fset, "source", nil),
	}
}

// Fset returns the FileSet all loaded packages share.
func (l *Loader) Fset() *token.FileSet { return l.fset }

// Load resolves patterns (e.g. "./...") to packages and type-checks them.
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	listed, err := goList(nil, patterns...)
	if err != nil {
		return nil, err
	}
	var pkgs []*Package
	for _, lp := range listed {
		if lp.DepOnly || lp.Dir == "" {
			continue
		}
		if lp.Error != nil {
			return nil, fmt.Errorf("go list %s: %s", lp.ImportPath, lp.Error.Err)
		}
		files := append(append([]string(nil), lp.GoFiles...), lp.CgoFiles...)
		if l.IncludeTests {
			files = append(files, lp.TestGoFiles...)
		}
		p, err := l.check(l.imp, lp.ImportPath, lp.Dir, files)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, p)
		if l.IncludeTests && len(lp.XTestGoFiles) > 0 {
			imp := l.imp
			if len(lp.TestGoFiles) > 0 {
				if imp, err = l.testVariants(lp.ImportPath, p.Pkg); err != nil {
					return nil, err
				}
			}
			xp, err := l.check(imp, lp.ImportPath+"_test", lp.Dir, lp.XTestGoFiles)
			if err != nil {
				return nil, err
			}
			pkgs = append(pkgs, xp)
		}
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].ImportPath < pkgs[j].ImportPath })
	return pkgs, nil
}

// testVariants returns the importer an external test of path sees when
// path has in-package test files: path resolves to under, the package with
// those files (so names an export_test.go declares resolve), and every
// package the go command recompiles against that variant for the test
// binary is type-checked again against it, so that a type reached through
// one of them is the type the test names directly. Other imports go to the
// shared importer.
func (l *Loader) testVariants(path string, under *types.Package) (types.Importer, error) {
	listed, err := goList([]string{"-deps", "-test"}, path)
	if err != nil {
		return nil, err
	}
	imp := variantImporter{pkgs: map[string]*types.Package{path: under}, next: l.imp}
	// -deps lists every package after its dependencies.
	for _, lp := range listed {
		plain, _, recompiled := strings.Cut(lp.ImportPath, " [")
		if !recompiled || lp.ForTest != path || plain == path || plain == path+"_test" {
			continue
		}
		p, err := l.check(imp, plain, lp.Dir, append(lp.GoFiles, lp.CgoFiles...))
		if err != nil {
			return nil, err
		}
		imp.pkgs[plain] = p.Pkg
	}
	return imp, nil
}

// variantImporter resolves the import paths in pkgs to their packages and
// every other path through next.
type variantImporter struct {
	pkgs map[string]*types.Package
	next types.Importer
}

func (v variantImporter) Import(path string) (*types.Package, error) {
	if p, ok := v.pkgs[path]; ok {
		return p, nil
	}
	return v.next.Import(path)
}

func (l *Loader) check(imp types.Importer, importPath, dir string, filenames []string) (*Package, error) {
	var files []*ast.File
	for _, name := range filenames {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := newTypesInfo()
	conf := types.Config{Importer: imp}
	pkg, err := conf.Check(importPath, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %v", importPath, err)
	}
	return &Package{ImportPath: importPath, Dir: dir, Files: files, Pkg: pkg, Info: info}, nil
}

func newTypesInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
}

// goList runs `go list -json` with the given flags over patterns.
func goList(flags []string, patterns ...string) ([]listedPackage, error) {
	args := append(append([]string{"list", "-json"}, flags...), "--")
	args = append(args, patterns...)
	cmd := exec.Command("go", args...)
	var out, errb bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &errb
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go list %s: %v\n%s", strings.Join(patterns, " "), err, errb.String())
	}
	var pkgs []listedPackage
	dec := json.NewDecoder(&out)
	for dec.More() {
		var p listedPackage
		if err := dec.Decode(&p); err != nil {
			return nil, fmt.Errorf("decoding go list output: %v", err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// Run executes the analyzers over the loaded packages, honoring each
// analyzer's AppliesTo scope and the //lint:ignore suppression directives,
// and returns the surviving diagnostics sorted by position. The import
// path of an external test package is matched against AppliesTo without
// its "_test" suffix.
func Run(fset *token.FileSet, pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var all []Diagnostic
	var perPkg, program []*Analyzer
	for _, a := range analyzers {
		if a.RunProgram != nil {
			program = append(program, a)
		} else {
			perPkg = append(perPkg, a)
		}
	}
	merged := &directiveSet{byLine: make(map[string][]string)}
	for _, p := range pkgs {
		scopePath := strings.TrimSuffix(p.ImportPath, "_test")
		dirs := directives(fset, p.Files)
		all = append(all, dirs.malformed...)
		for key, names := range dirs.byLine {
			merged.byLine[key] = append(merged.byLine[key], names...)
		}
		for _, a := range perPkg {
			if a.AppliesTo != nil && !a.AppliesTo(scopePath) {
				continue
			}
			diags, err := AnalyzePackage(fset, p.Files, p.Pkg, p.Info, a)
			if err != nil {
				return nil, err
			}
			for _, d := range diags {
				if !dirs.suppresses(fset.Position(d.Pos), a.Name) {
					all = append(all, d)
				}
			}
		}
	}
	if len(program) > 0 {
		prog := BuildProgram(fset, pkgs)
		for _, a := range program {
			diags, err := prog.Run(a)
			if err != nil {
				return nil, err
			}
			for _, d := range diags {
				if !merged.suppresses(fset.Position(d.Pos), a.Name) {
					all = append(all, d)
				}
			}
		}
	}
	sortDiagnostics(fset, all)
	return all, nil
}

var ignoreRE = regexp.MustCompile(`^//lint:ignore\s+(\S+)(\s+(.*))?$`)

type directiveSet struct {
	// byLine maps "filename:line" to the analyzer names silenced there.
	byLine    map[string][]string
	malformed []Diagnostic
}

func directives(fset *token.FileSet, files []*ast.File) *directiveSet {
	ds := &directiveSet{byLine: make(map[string][]string)}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if m := ignoreRE.FindStringSubmatch(c.Text); m != nil {
					if strings.TrimSpace(m[3]) == "" {
						ds.malformed = append(ds.malformed, Diagnostic{
							Pos:      c.Pos(),
							Message:  "//lint:ignore directive is missing a reason",
							Analyzer: "lint",
						})
						continue
					}
					pos := fset.Position(c.Pos())
					key := fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
					ds.byLine[key] = append(ds.byLine[key], strings.Split(m[1], ",")...)
					continue
				}
				if names, ok := parseAllow(c.Text); !ok {
					ds.malformed = append(ds.malformed, Diagnostic{
						Pos:      c.Pos(),
						Message:  "//lint:allow directive must be a list of analyzer(reason) entries with non-empty reasons",
						Analyzer: "lint",
					})
				} else if len(names) > 0 {
					// An allow also suppresses same-line findings, so the
					// two directive forms compose: per-package analyzers
					// honor it exactly like an ignore.
					pos := fset.Position(c.Pos())
					key := fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
					ds.byLine[key] = append(ds.byLine[key], names...)
				}
			}
		}
	}
	return ds
}

// suppresses reports whether a directive on the diagnostic's line, or on
// the line directly above it, names the analyzer (or "all").
func (ds *directiveSet) suppresses(pos token.Position, analyzer string) bool {
	for _, line := range []int{pos.Line, pos.Line - 1} {
		for _, name := range ds.byLine[fmt.Sprintf("%s:%d", pos.Filename, line)] {
			if name == analyzer || name == "all" {
				return true
			}
		}
	}
	return false
}
