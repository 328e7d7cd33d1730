// Package vet implements crackvet, the repo-invariant static analyzer
// suite: a set of checkers over the type-checked AST that enforce, at
// compile time, the concurrency and protocol contracts the runtime layers
// rely on (see doc.go "Invariants" at the module root). Built on the
// standard library only — go/ast, go/parser, go/types, go/importer — so
// the module keeps its zero-dependency go.mod.
//
// Each checker reports findings as `file:line: [check-name] message`. A
// finding can be suppressed by a pragma comment on the same line or the
// line directly above it:
//
//	//crackvet:ignore check-name reason for the exception
//
// Suppressions are counted and surfaced by cmd/crackvet so pragma creep
// stays visible.
package vet

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
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
	Doc  string
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
	Exhaustive,
	DetRand,
}

// Result is the outcome of running checkers over a set of packages.
type Result struct {
	Findings   []Finding // active findings (exit nonzero when non-empty)
	Suppressed []Finding // findings silenced by a //crackvet:ignore pragma
}

// ignorePragma is the suppression comment prefix.
const ignorePragma = "//crackvet:ignore"

// ignores collects, per file, the set of (line, check) pairs suppressed by
// pragmas. A pragma on line N suppresses findings of the named check on
// line N and line N+1 (so it can sit on its own line above the finding).
func ignoredLines(p *Package) map[string]map[int]map[string]bool {
	out := make(map[string]map[int]map[string]bool)
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(c.Text)
				rest, ok := strings.CutPrefix(text, ignorePragma)
				if !ok {
					continue
				}
				fields := strings.Fields(rest)
				if len(fields) == 0 {
					continue
				}
				check := fields[0]
				pos := p.Fset.Position(c.Pos())
				byLine := out[pos.Filename]
				if byLine == nil {
					byLine = make(map[int]map[string]bool)
					out[pos.Filename] = byLine
				}
				for _, line := range []int{pos.Line, pos.Line + 1} {
					if byLine[line] == nil {
						byLine[line] = make(map[string]bool)
					}
					byLine[line][check] = true
				}
			}
		}
	}
	return out
}

// Run executes the given checkers (all of them when nil) over pkgs,
// splitting findings into active and pragma-suppressed, each sorted by
// position.
func Run(pkgs []*Package, checkers []*Checker) Result {
	if checkers == nil {
		checkers = All
	}
	var res Result
	for _, pkg := range pkgs {
		var fs []Finding
		for _, c := range checkers {
			pass := &Pass{Package: pkg, check: c.Name, findings: &fs}
			c.Run(pass)
		}
		ign := ignoredLines(pkg)
		seen := make(map[Finding]bool) // path-flow checkers can reach one site twice
		for _, f := range fs {
			if seen[f] {
				continue
			}
			seen[f] = true
			if ign[f.Pos.Filename][f.Pos.Line][f.Check] {
				res.Suppressed = append(res.Suppressed, f)
			} else {
				res.Findings = append(res.Findings, f)
			}
		}
	}
	byPos := func(s []Finding) func(i, j int) bool {
		return func(i, j int) bool {
			if s[i].Pos.Filename != s[j].Pos.Filename {
				return s[i].Pos.Filename < s[j].Pos.Filename
			}
			if s[i].Pos.Line != s[j].Pos.Line {
				return s[i].Pos.Line < s[j].Pos.Line
			}
			return s[i].Check < s[j].Check
		}
	}
	sort.Slice(res.Findings, byPos(res.Findings))
	sort.Slice(res.Suppressed, byPos(res.Suppressed))
	return res
}

// ---------------------------------------------------------------------------
// Shared AST helpers.

// funcBodies visits every function-like body in the package: declared
// functions and methods, and every function literal (each literal body is
// its own unit — statements inside it run at another time, so path-based
// checkers must not mix them with the enclosing body).
func funcBodies(p *Package, visit func(name string, body *ast.BlockStmt)) {
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					visit(fn.Name.Name, fn.Body)
				}
			case *ast.FuncLit:
				visit("func literal", fn.Body)
			}
			return true
		})
	}
}

// recvChain renders a selector chain of identifiers and field selections
// ("s.mu", "e.inner.statsMu") for use as a lock identity key; ok is false
// when the expression contains anything else (calls, indexing), which a
// path-insensitive key cannot name reliably.
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
