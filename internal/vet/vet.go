// Package vet implements crackvet, the repo-invariant static analyzer
// suite: three checkers over the type-checked AST that enforce, at
// compile time, the concurrency and protocol contracts the runtime layers
// rely on and no test catches (see doc.go "Invariants" at the module root).
// The go command finds and compiles the packages (`go list -export`); the
// checkers parse and type-check them with the standard library only —
// go/ast, go/parser, go/types, go/importer — so the module keeps its
// zero-dependency go.mod.
//
// Each checker reports findings as `file:line: [check-name] message`.
// There is no suppression: code a checker flags is changed until it
// conforms.
package vet

import (
	"cmp"
	"fmt"
	"go/ast"
	"go/token"
	"slices"
	"strings"
)

// Finding is one diagnostic.
type Finding struct {
	Pos     token.Position
	Check   string
	Message string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d: [%s] %s", f.Pos.Filename, f.Pos.Line, f.Check, f.Message)
}

// Checker is one named invariant check.
type Checker struct {
	Name string
	Run  func(pass *Pass)
}

// Pass carries one checker's run over one package.
type Pass struct {
	*Package
	check    string
	findings *[]Finding
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.findings = append(*p.findings, Finding{
		Pos:     p.Fset.Position(pos),
		Check:   p.check,
		Message: fmt.Sprintf(format, args...),
	})
}

// All is the full checker suite, in reporting order.
var All = []*Checker{
	FrozenVersion,
	LockPair,
	WireBounds,
}

// Run executes the given checkers (all of them when nil) over pkgs and
// returns their findings sorted by position.
func Run(pkgs []*Package, checkers []*Checker) []Finding {
	if checkers == nil {
		checkers = All
	}
	var fs []Finding
	for _, pkg := range pkgs {
		for _, c := range checkers {
			c.Run(&Pass{Package: pkg, check: c.Name, findings: &fs})
		}
	}
	slices.SortFunc(fs, func(a, b Finding) int {
		return cmp.Or(strings.Compare(a.Pos.Filename, b.Pos.Filename),
			cmp.Compare(a.Pos.Line, b.Pos.Line), strings.Compare(a.Check, b.Check))
	})
	return fs
}

// ---------------------------------------------------------------------------
// Shared AST helpers.

// funcBodies visits every function-like body in the package: declared
// functions and methods, and every function literal (each literal body is
// its own unit — statements inside it run at another time, so checkers
// must not mix them with the enclosing body).
func funcBodies(p *Package, visit func(body *ast.BlockStmt)) {
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					visit(fn.Body)
				}
			case *ast.FuncLit:
				visit(fn.Body)
			}
			return true
		})
	}
}

// recvChain renders a selector chain of identifiers and field selections
// ("s.mu", "e.inner.statsMu") for use as a lock identity key; ok is false
// when the expression contains anything else (calls, indexing), which a
// syntactic key cannot name reliably.
func recvChain(e ast.Expr) (string, bool) {
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name, true
	case *ast.SelectorExpr:
		base, ok := recvChain(x.X)
		if !ok {
			return "", false
		}
		return base + "." + x.Sel.Name, true
	case *ast.ParenExpr:
		return recvChain(x.X)
	}
	return "", false
}
