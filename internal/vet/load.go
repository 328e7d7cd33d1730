package vet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
)

// Package is one loaded, type-checked package ready for checking. A
// package's in-package test files are type-checked together with its
// library files (as `go test` does), so the checkers see test code too; an
// external foo_test package is its own Package.
type Package struct {
	PkgPath string // import path ("crackstore/internal/wire", "crackstore/internal/frame_test")
	Name    string // package name ("wire")
	Fset    *token.FileSet
	Files   []*ast.File
	Info    *types.Info

	testFiles map[*ast.File]bool
}

// IsTestFile reports whether f came from a _test.go file.
func (p *Package) IsTestFile(f *ast.File) bool { return p.testFiles[f] }

// listed is the part of one `go list -json` record the loader reads.
type listed struct {
	ImportPath  string // "p", "p [p.test]" (p with its tests), "p_test [p.test]", "p.test"
	Dir         string
	Export      string // compiler export data
	ForTest     string
	GoFiles     []string
	TestGoFiles []string
	DepOnly     bool
}

// Load returns the packages the go command matches for patterns (default
// "./...") in the module enclosing dir. The go command finds and compiles
// them and their dependencies (`go list -deps -test -export`); each target
// is then parsed from source and type-checked against its dependencies'
// export data, so only the standard library's go/importer is needed and the
// module keeps its zero-dependency go.mod. A nested module (benchmark/) is
// outside "./..."; it is checked by calling Load there.
func Load(dir string, patterns []string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	cmd := exec.Command("go", append([]string{"list", "-deps", "-test", "-export",
		"-json=ImportPath,Dir,Export,ForTest,GoFiles,TestGoFiles,DepOnly"}, patterns...)...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("vet: go list: %v\n%s", err, stderr.Bytes())
	}
	var all []*listed
	export := make(map[string]string)
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		p := new(listed)
		if err := dec.Decode(p); err != nil {
			return nil, fmt.Errorf("vet: go list output: %w", err)
		}
		all = append(all, p)
		export[p.ImportPath] = p.Export
	}

	fset := token.NewFileSet()
	var pkgs []*Package
	for _, p := range all {
		path, _, variant := strings.Cut(p.ImportPath, " [")
		switch {
		case p.DepOnly || strings.HasSuffix(p.ImportPath, ".test"): // a dependency, or a generated test main
			continue
		case !variant && len(p.TestGoFiles) > 0: // checked as "p [p.test]", library and tests together
			continue
		case variant && path != p.ForTest && path != p.ForTest+"_test": // recompiled for another package's test
			continue
		}
		// In a test variant an import resolves to its copy recompiled for
		// that test, when the go command made one.
		lookup := func(imp string) (io.ReadCloser, error) {
			f := export[imp+" ["+p.ForTest+".test]"]
			if f == "" {
				f = export[imp]
			}
			if f == "" {
				return nil, fmt.Errorf("vet: no export data for %s", imp)
			}
			return os.Open(f)
		}
		tests := p.TestGoFiles
		if path == p.ForTest+"_test" {
			tests = p.GoFiles
		}
		pkg, err := check(fset, path, p.Dir, p.GoFiles, tests, importer.ForCompiler(fset, "gc", lookup))
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// LoadDir type-checks the single directory dir, every .go file in it, as one
// self-contained package importing only the standard library: the fixture
// loader for checker tests.
func LoadDir(dir string) (*Package, error) {
	names, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil || len(names) == 0 {
		return nil, fmt.Errorf("vet: no Go files in %s", dir)
	}
	for i, n := range names {
		names[i] = filepath.Base(n)
	}
	fset := token.NewFileSet()
	return check(fset, "fixture/"+filepath.Base(dir), dir, names, nil, importer.ForCompiler(fset, "gc", nil))
}

// check parses files (names in dir; tests names those that are test files)
// and type-checks them as package path.
func check(fset *token.FileSet, path, dir string, files, tests []string, imp types.Importer) (*Package, error) {
	p := &Package{PkgPath: path, Fset: fset, testFiles: make(map[*ast.File]bool)}
	for _, name := range files {
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		p.Files = append(p.Files, f)
		p.testFiles[f] = slices.Contains(tests, name)
	}
	p.Info = &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{Importer: imp}
	tp, err := conf.Check(path, fset, p.Files, p.Info)
	if err != nil {
		return nil, fmt.Errorf("vet: type-checking %s: %w", dir, err)
	}
	p.Name = tp.Name()
	return p, nil
}
