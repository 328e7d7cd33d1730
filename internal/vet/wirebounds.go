package vet

import (
	"go/ast"
	"go/token"
	"go/types"
)

// WireBounds guards the decoders' prealloc-DoS contract: every decode-side
// make([]T, n) / make(map[...], n) in the packages that decode untrusted
// bytes — internal/wire (a peer's frames), internal/wal (a log or
// checkpoint read back from disk) and internal/frame (their shared
// reader) — must take its size from a count that cannot exceed the bytes
// actually remaining, which is exactly what frame.Reader.Count returns. A
// size that reaches make straight from a decoded integer lets a few
// adversarial bytes demand a multi-gigabyte allocation (or overflow into a
// panic); the fuzz targets probe this property, this checker proves it per
// call site. A size is accepted when it derives from:
//
//   - a call of the Count method of a type named Reader (the canonical
//     bounded count; matched by name so fixtures work),
//   - a constant, len(), cap() or min(),
//   - a variable that an earlier `if v > limit { return ... }` guard
//     bounds explicitly (the frame-header path, where the length is
//     validated before any payload exists to measure against; a guard
//     joined by || bounds nothing),
//
// or arithmetic over those. Only non-test files are checked: tests build
// their own inputs, and encoders allocate from data the process already
// holds either way — but the checker cannot tell an encoder from a
// decoder, so it holds both to the same rule (encode-side sizes all come
// from len() anyway).
var WireBounds = &Checker{Name: "wirebounds", Run: runWireBounds}

func runWireBounds(pass *Pass) {
	switch pass.Name {
	case "wire", "wal", "frame":
	default:
		return
	}
	for _, f := range pass.Files {
		if pass.IsTestFile(f) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					wireBoundsBody(pass, fn.Body)
				}
				return false // bodies handle their own nested literals
			}
			return true
		})
	}
}

func wireBoundsBody(pass *Pass, body *ast.BlockStmt) {
	blessed := make(map[types.Object]bool)

	identObj := func(id *ast.Ident) types.Object {
		if o := pass.Info.Defs[id]; o != nil {
			return o
		}
		return pass.Info.Uses[id]
	}

	// unwrap strips parens and conversions: `uint64(n)` guards n.
	var unwrap func(e ast.Expr) ast.Expr
	unwrap = func(e ast.Expr) ast.Expr {
		switch x := e.(type) {
		case *ast.ParenExpr:
			return unwrap(x.X)
		case *ast.CallExpr:
			if tv, ok := pass.Info.Types[x.Fun]; ok && tv.IsType() && len(x.Args) == 1 {
				return unwrap(x.Args[0])
			}
		}
		return e
	}

	// isCount matches a call of Reader.Count, on a Reader or a *Reader.
	isCount := func(call *ast.CallExpr) bool {
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Count" {
			return false
		}
		s := pass.Info.Selections[sel]
		if s == nil || s.Kind() != types.MethodVal {
			return false
		}
		recv := s.Recv()
		if p, ok := recv.(*types.Pointer); ok {
			recv = p.Elem()
		}
		named, ok := recv.(*types.Named)
		return ok && named.Obj().Name() == "Reader"
	}

	// terminates reports whether a statement list unconditionally leaves
	// the function (the body of a size guard).
	terminates := func(stmts []ast.Stmt) bool {
		if len(stmts) == 0 {
			return false
		}
		switch s := stmts[len(stmts)-1].(type) {
		case *ast.ReturnStmt:
			return true
		case *ast.ExprStmt:
			if call, ok := s.X.(*ast.CallExpr); ok {
				if id, ok := call.Fun.(*ast.Ident); ok {
					return id.Name == "panic"
				}
			}
		}
		return false
	}

	// isBlessed reports whether e is provably bounded.
	var isBlessed func(e ast.Expr) bool
	isBlessed = func(e ast.Expr) bool {
		if tv, ok := pass.Info.Types[e]; ok && tv.Value != nil {
			return true // any constant expression
		}
		switch x := e.(type) {
		case *ast.Ident:
			obj := identObj(x)
			return obj != nil && blessed[obj]
		case *ast.ParenExpr:
			return isBlessed(x.X)
		case *ast.BinaryExpr:
			return isBlessed(x.X) && isBlessed(x.Y)
		case *ast.UnaryExpr:
			return isBlessed(x.X)
		case *ast.CallExpr:
			if isCount(x) {
				return true
			}
			if id, ok := x.Fun.(*ast.Ident); ok {
				if _, isBuiltin := pass.Info.Uses[id].(*types.Builtin); isBuiltin && (id.Name == "len" || id.Name == "cap" || id.Name == "min") {
					return true
				}
			}
			if tv, ok := pass.Info.Types[x.Fun]; ok && tv.IsType() && len(x.Args) == 1 {
				return isBlessed(x.Args[0]) // conversion of a bounded value
			}
		}
		return false
	}

	// Bless fixpoint: comparison guards with terminating bodies, and
	// propagation through bounded assignments (Count results among them).
	for changed := true; changed; {
		changed = false
		bless := func(id *ast.Ident) {
			if obj := identObj(id); obj != nil && !blessed[obj] {
				blessed[obj] = true
				changed = true
			}
		}
		ast.Inspect(body, func(n ast.Node) bool {
			switch s := n.(type) {
			case *ast.AssignStmt:
				if len(s.Lhs) == len(s.Rhs) {
					for i, rhs := range s.Rhs {
						if id, ok := s.Lhs[i].(*ast.Ident); ok && isBlessed(rhs) {
							bless(id)
						}
					}
				}
			case *ast.IfStmt:
				// `if v > limit { return err }` bounds v for the paths
				// that continue.
				cmp, ok := s.Cond.(*ast.BinaryExpr)
				if !ok || !terminates(s.Body.List) {
					return true
				}
				switch cmp.Op {
				case token.GTR, token.GEQ, token.LSS, token.LEQ, token.NEQ:
					for _, side := range []ast.Expr{cmp.X, cmp.Y} {
						if id, ok := unwrap(side).(*ast.Ident); ok {
							bless(id)
						}
					}
				}
			}
			return true
		})
	}

	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		id, ok := call.Fun.(*ast.Ident)
		if !ok || id.Name != "make" {
			return true
		}
		if _, isBuiltin := pass.Info.Uses[id].(*types.Builtin); !isBuiltin {
			return true
		}
		for _, sz := range call.Args[1:] {
			if !isBlessed(sz) {
				pass.Reportf(call.Pos(), "preallocation size does not derive from frame.Reader.Count (or an explicit bound guard): a corrupt count can demand an arbitrary allocation")
				break
			}
		}
		return true
	})
}
