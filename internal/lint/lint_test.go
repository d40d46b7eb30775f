package lint_test

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"path/filepath"
	"strconv"
	"testing"

	"repro/internal/lint"
)

// loadFixture type-checks one testdata package under an arbitrary import
// path, so driver behavior (scoping, suppression) can be tested directly.
func loadFixture(t *testing.T, dir, importPath string) (*token.FileSet, *lint.Package) {
	t.Helper()
	fset := token.NewFileSet()
	matches, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil || len(matches) == 0 {
		t.Fatalf("no fixture files in %s: %v", dir, err)
	}
	var files []*ast.File
	for _, m := range matches {
		f, err := parser.ParseFile(fset, m, nil, parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types: make(map[ast.Expr]types.TypeAndValue),
		Defs:  make(map[*ast.Ident]types.Object),
		Uses:  make(map[*ast.Ident]types.Object),
	}
	conf := types.Config{Importer: importer.ForCompiler(fset, "source", nil)}
	pkg, err := conf.Check(importPath, fset, files, info)
	if err != nil {
		t.Fatalf("fixture %s does not type-check: %v", dir, err)
	}
	return fset, &lint.Package{ImportPath: importPath, Dir: dir, Files: files, Pkg: pkg, Info: info}
}

func TestSuppressionDirectives(t *testing.T) {
	fset, pkg := loadFixture(t, filepath.Join("testdata", "src", "suppress"), "repro/internal/suppressfixture")
	diags, err := lint.Run(fset, []*lint.Package{pkg}, []*lint.Analyzer{lint.PanicFree})
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, d := range diags {
		got = append(got, d.Analyzer+":"+strconv.Itoa(fset.Position(d.Pos).Line))
	}
	// Expected: the malformed directive itself, plus the three panics that
	// are not validly suppressed (unsuppressed, wrongName, missingReason).
	want := map[string]bool{
		"panicfree:13": true, // unsuppressed
		"panicfree:17": true, // wrong analyzer name in directive
		"lint:21":      true, // directive missing its reason
		"panicfree:21": true, // ... so the panic is not suppressed either
	}
	if len(diags) != len(want) {
		t.Fatalf("got %d diagnostics %v, want %d", len(diags), got, len(want))
	}
	for _, d := range diags {
		key := d.Analyzer + ":" + strconv.Itoa(fset.Position(d.Pos).Line)
		if !want[key] {
			t.Errorf("unexpected diagnostic %s: %s", key, d.Message)
		}
	}
}

func TestAppliesToScoping(t *testing.T) {
	// The same fixture loaded under an out-of-scope import path must
	// produce no analyzer diagnostics: panicfree only applies inside the
	// module's library packages. Directive hygiene (the malformed
	// //lint:ignore) is package-independent and still reported.
	fset, pkg := loadFixture(t, filepath.Join("testdata", "src", "suppress"), "example.com/elsewhere")
	diags, err := lint.Run(fset, []*lint.Package{pkg}, []*lint.Analyzer{lint.PanicFree})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 1 || diags[0].Analyzer != "lint" {
		t.Fatalf("out-of-scope package produced %v, want only the malformed-directive report", diags)
	}
}

func TestAllAnalyzersRegistered(t *testing.T) {
	names := map[string]bool{}
	for _, a := range lint.All() {
		if a.Name == "" || a.Doc == "" || (a.Run == nil) == (a.RunProgram == nil) {
			t.Fatalf("analyzer %+v must define exactly one of Run and RunProgram", a)
		}
		if names[a.Name] {
			t.Fatalf("duplicate analyzer name %q", a.Name)
		}
		names[a.Name] = true
	}
	for _, want := range []string{"detnondet", "maporder", "kindswitch", "floateq", "panicfree", "hotalloc", "simtime", "tapcover"} {
		if !names[want] {
			t.Errorf("analyzer %q missing from All()", want)
		}
	}
}

// TestLoaderTypesExternalTestAgainstTestVariant loads a fixture whose
// external test calls a function declared in its export_test.go on a value
// typed through a second package that imports the package under test. It
// type-checks only if the loader resolves both paths the way the go
// command builds the test binary.
func TestLoaderTypesExternalTestAgainstTestVariant(t *testing.T) {
	pkgs, err := lint.NewLoader().Load("./testdata/src/xtestvariant")
	if err != nil {
		t.Fatal(err)
	}
	var paths []string
	for _, p := range pkgs {
		paths = append(paths, p.ImportPath)
	}
	const path = "repro/internal/lint/testdata/src/xtestvariant"
	if len(paths) != 2 || paths[0] != path || paths[1] != path+"_test" {
		t.Fatalf("loaded %v, want the package and its external test", paths)
	}
}
