package vet

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, type-checked package ready for checking. When the
// directory contains in-package test files they are type-checked together
// with the library files (as `go test` does), so the checkers see test code
// too; an external foo_test package in the same directory is loaded as its
// own Package.
type Package struct {
	PkgPath string // import path ("crackstore/internal/wire")
	Name    string // package name ("wire")
	Dir     string
	Fset    *token.FileSet
	Files   []*ast.File
	Types   *types.Package
	Info    *types.Info

	testFiles map[*ast.File]bool
}

// IsTestFile reports whether f came from a _test.go file.
func (p *Package) IsTestFile(f *ast.File) bool { return p.testFiles[f] }

// loader resolves module-local imports from its registry of already
// type-checked library packages and everything else through the compiler
// export data (falling back to type-checking the standard library from
// source where export data is unavailable). Only the two stdlib importers
// are used — crackvet must not grow dependencies, exactly like the module
// it checks.
type loader struct {
	fset    *token.FileSet
	modPath string
	modRoot string
	reg     map[string]*types.Package // import path -> checked library package
	gc      types.Importer
	src     types.Importer
}

func newLoader(modRoot, modPath string) *loader {
	fset := token.NewFileSet()
	return &loader{
		fset:    fset,
		modPath: modPath,
		modRoot: modRoot,
		reg:     make(map[string]*types.Package),
		gc:      importer.Default(),
		src:     importer.ForCompiler(fset, "source", nil),
	}
}

// Import implements types.Importer.
func (l *loader) Import(path string) (*types.Package, error) {
	if p, ok := l.reg[path]; ok {
		return p, nil
	}
	if path == l.modPath || strings.HasPrefix(path, l.modPath+"/") {
		return nil, fmt.Errorf("vet: module package %s not loaded (dependency cycle or missing dir?)", path)
	}
	if p, err := l.gc.Import(path); err == nil {
		return p, nil
	}
	return l.src.Import(path)
}

// findModule walks up from dir to the enclosing go.mod, returning the
// module root directory and module path.
func findModule(dir string) (root, path string, err error) {
	dir, err = filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					return dir, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("vet: %s/go.mod has no module line", dir)
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", "", fmt.Errorf("vet: no go.mod found above %s", dir)
		}
		dir = parent
	}
}

// skipDir reports directories the package walk never descends into.
func skipDir(name string) bool {
	return name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")
}

// goDirs returns every directory under root that contains .go files.
func goDirs(root string) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != root && skipDir(d.Name()) {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(p, ".go") {
			dir := filepath.Dir(p)
			if len(dirs) == 0 || dirs[len(dirs)-1] != dir {
				dirs = append(dirs, dir)
			}
		}
		return nil
	})
	return dirs, err
}

// dirFiles parses every .go file in dir, split into the library files, the
// in-package test files, and the external (foo_test) test files.
func (l *loader) dirFiles(dir string) (lib, tests, xtests []*ast.File, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, nil, err
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") && !strings.HasPrefix(e.Name(), ".") && !strings.HasPrefix(e.Name(), "_") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	for _, name := range names {
		// A file the default build leaves out (//go:build race) may redeclare
		// what its counterpart declares.
		if ok, err := build.Default.MatchFile(dir, name); err != nil {
			return nil, nil, nil, err
		} else if !ok {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, nil, nil, err
		}
		switch {
		case strings.HasSuffix(f.Name.Name, "_test"):
			xtests = append(xtests, f)
		case strings.HasSuffix(name, "_test.go"):
			tests = append(tests, f)
		default:
			lib = append(lib, f)
		}
	}
	return lib, tests, xtests, nil
}

// importPath maps a module directory to its import path.
func (l *loader) importPath(dir string) (string, error) {
	rel, err := filepath.Rel(l.modRoot, dir)
	if err != nil {
		return "", err
	}
	if rel == "." {
		return l.modPath, nil
	}
	return l.modPath + "/" + filepath.ToSlash(rel), nil
}

func localImports(files []*ast.File, modPath string) []string {
	var out []string
	for _, f := range files {
		for _, imp := range f.Imports {
			p := strings.Trim(imp.Path.Value, `"`)
			if p == modPath || strings.HasPrefix(p, modPath+"/") {
				out = append(out, p)
			}
		}
	}
	return out
}

func newInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
}

func (l *loader) check(path, dir string, files []*ast.File) (*types.Package, *types.Info, error) {
	info := newInfo()
	conf := types.Config{Importer: l}
	pkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, nil, fmt.Errorf("vet: type-checking %s: %w", dir, err)
	}
	return pkg, info, nil
}

// Load type-checks the whole module rooted above dir and returns the
// analysis packages selected by patterns ("./...", "./internal/wire", ...),
// interpreted relative to dir. Every module package is type-checked (the
// targets may import any of them); only the matched ones are returned.
func Load(dir string, patterns []string) ([]*Package, error) {
	modRoot, modPath, err := findModule(dir)
	if err != nil {
		return nil, err
	}
	l := newLoader(modRoot, modPath)

	dirs, err := goDirs(modRoot)
	if err != nil {
		return nil, err
	}

	// Parse every module package once.
	type rawPkg struct {
		dir, path          string
		lib, tests, xtests []*ast.File
		deps               []string
	}
	raws := make(map[string]*rawPkg)
	for _, d := range dirs {
		lib, tests, xtests, err := l.dirFiles(d)
		if err != nil {
			return nil, err
		}
		if len(lib) == 0 && len(tests) == 0 && len(xtests) == 0 {
			continue
		}
		path, err := l.importPath(d)
		if err != nil {
			return nil, err
		}
		raws[path] = &rawPkg{dir: d, path: path, lib: lib, tests: tests, xtests: xtests,
			deps: localImports(lib, modPath)}
	}

	// Type-check library files in dependency order, registering each so
	// later packages (and test variants) resolve their module imports.
	var order []string
	state := make(map[string]int) // 0 unvisited, 1 visiting, 2 done
	var visit func(p string) error
	visit = func(p string) error {
		switch state[p] {
		case 1:
			return fmt.Errorf("vet: import cycle through %s", p)
		case 2:
			return nil
		}
		state[p] = 1
		r := raws[p]
		for _, d := range r.deps {
			if _, ok := raws[d]; ok {
				if err := visit(d); err != nil {
					return err
				}
			}
		}
		state[p] = 2
		order = append(order, p)
		return nil
	}
	var paths []string
	for p := range raws {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		if err := visit(p); err != nil {
			return nil, err
		}
	}
	for _, p := range order {
		r := raws[p]
		if len(r.lib) == 0 {
			continue
		}
		pkg, _, err := l.check(p, r.dir, r.lib)
		if err != nil {
			return nil, err
		}
		l.reg[p] = pkg
	}

	// Resolve the target directories.
	targets, err := expandPatterns(dir, modRoot, patterns)
	if err != nil {
		return nil, err
	}

	// Build the analysis packages: library+tests together (re-checked, not
	// registered, so test-only imports can never create a module cycle),
	// plus the external test package when present.
	var out []*Package
	for _, p := range order {
		r := raws[p]
		if !targets[r.dir] {
			continue
		}
		if len(r.lib)+len(r.tests) > 0 {
			files := append(append([]*ast.File(nil), r.lib...), r.tests...)
			pkg, info, err := l.check(p, r.dir, files)
			if err != nil {
				return nil, err
			}
			ap := &Package{
				PkgPath: p, Name: pkg.Name(), Dir: r.dir, Fset: l.fset,
				Files: files, Types: pkg, Info: info,
				testFiles: make(map[*ast.File]bool, len(r.tests)),
			}
			for _, f := range r.tests {
				ap.testFiles[f] = true
			}
			out = append(out, ap)
		}
		if len(r.xtests) > 0 {
			pkg, info, err := l.check(p+"_test", r.dir, r.xtests)
			if err != nil {
				return nil, err
			}
			ap := &Package{
				PkgPath: p + "_test", Name: pkg.Name(), Dir: r.dir, Fset: l.fset,
				Files: r.xtests, Types: pkg, Info: info,
				testFiles: make(map[*ast.File]bool, len(r.xtests)),
			}
			for _, f := range r.xtests {
				ap.testFiles[f] = true
			}
			out = append(out, ap)
		}
	}
	return out, nil
}

// LoadDir type-checks the single directory dir as one self-contained
// package (stdlib imports only. The fixture loader for checker tests.)
func LoadDir(dir string) (*Package, error) {
	l := newLoader(dir, "fixture")
	lib, tests, _, err := l.dirFiles(dir)
	if err != nil {
		return nil, err
	}
	files := append(lib, tests...)
	if len(files) == 0 {
		return nil, fmt.Errorf("vet: no Go files in %s", dir)
	}
	pkg, info, err := l.check("fixture/"+filepath.Base(dir), dir, files)
	if err != nil {
		return nil, err
	}
	return &Package{
		PkgPath: pkg.Path(), Name: pkg.Name(), Dir: dir, Fset: l.fset,
		Files: files, Types: pkg, Info: info,
	}, nil
}

func expandPatterns(cwd, modRoot string, patterns []string) (map[string]bool, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	targets := make(map[string]bool)
	for _, pat := range patterns {
		rec := false
		if strings.HasSuffix(pat, "/...") {
			rec = true
			pat = strings.TrimSuffix(pat, "/...")
			if pat == "." || pat == "" {
				pat = "."
			}
		} else if pat == "..." {
			rec, pat = true, "."
		}
		base := pat
		if !filepath.IsAbs(base) {
			base = filepath.Join(cwd, base)
		}
		abs, err := filepath.Abs(base)
		if err != nil {
			return nil, err
		}
		if !strings.HasPrefix(abs+string(filepath.Separator), modRoot+string(filepath.Separator)) {
			return nil, fmt.Errorf("vet: pattern %q escapes module root %s", pat, modRoot)
		}
		if rec {
			ds, err := goDirs(abs)
			if err != nil {
				return nil, err
			}
			for _, d := range ds {
				targets[d] = true
			}
		} else {
			targets[abs] = true
		}
	}
	return targets, nil
}
