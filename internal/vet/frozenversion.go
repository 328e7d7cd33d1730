package vet

import (
	"go/ast"
	"go/types"
)

// FrozenVersion enforces the snapshot immutability contract: a value
// loaded from an atomic.Pointer[T] is a published version — readers
// traverse it lock-free, so nothing reachable from it may ever be written.
// The checker flags any assignment through such a value: a field store, a
// slice/map element store, a store through the deref, or a copy() into a
// slice that came from it — whether written through the Load() call
// directly or through a local alias.
//
// Propagation is value-structural: it follows field selections, indexing,
// slicing, and deref of the loaded pointer, and it follows aliases whose
// type shares memory: slices, maps and pointers. A pointer read out of
// published memory is itself published — the column versions a published
// cols map holds are as immutable as the map — so a writer derives a
// successor in the function that loads the version it replaces, where a
// write through the old one is seen.
var FrozenVersion = &Checker{Name: "frozenversion", Run: runFrozenVersion}

// isAtomicPointerLoad matches a call to (*sync/atomic.Pointer[T]).Load.
func (p *Pass) isAtomicPointerLoad(call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := p.Info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Name() != "Load" {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	rt := sig.Recv().Type()
	if ptr, ok := rt.(*types.Pointer); ok {
		rt = ptr.Elem()
	}
	named, ok := rt.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Pointer" && obj.Pkg() != nil && obj.Pkg().Path() == "sync/atomic"
}

func runFrozenVersion(pass *Pass) {
	funcBodies(pass.Package, func(body *ast.BlockStmt) { frozenBody(pass, body) })
}

func frozenBody(pass *Pass, body *ast.BlockStmt) {
	frozen := make(map[types.Object]bool)

	identObj := func(id *ast.Ident) types.Object {
		if o := pass.Info.Defs[id]; o != nil {
			return o
		}
		return pass.Info.Uses[id]
	}

	// isFrozen reports whether e denotes (or references) memory inside a
	// published version.
	var isFrozen func(e ast.Expr) bool
	isFrozen = func(e ast.Expr) bool {
		switch x := e.(type) {
		case *ast.CallExpr:
			return pass.isAtomicPointerLoad(x)
		case *ast.Ident:
			obj := identObj(x)
			return obj != nil && frozen[obj]
		case *ast.ParenExpr:
			return isFrozen(x.X)
		case *ast.StarExpr:
			return isFrozen(x.X)
		case *ast.SelectorExpr:
			return isFrozen(x.X)
		case *ast.IndexExpr:
			return isFrozen(x.X)
		case *ast.SliceExpr:
			return isFrozen(x.X)
		}
		return false
	}

	// aliases reports whether binding rhs to variable id carries frozen
	// memory: the loaded pointer itself, a frozen variable copied
	// wholesale, or any frozen expression bound to a variable whose type
	// shares backing store (slice, map or pointer; struct and scalar copies
	// are genuinely private).
	sharesMemory := func(id *ast.Ident) bool {
		obj := identObj(id)
		if obj == nil {
			return false
		}
		switch obj.Type().Underlying().(type) {
		case *types.Slice, *types.Map, *types.Pointer:
			return true
		}
		return false
	}
	aliases := func(id *ast.Ident, rhs ast.Expr) bool {
		if !isFrozen(rhs) {
			return false
		}
		switch rhs.(type) {
		case *ast.CallExpr, *ast.Ident: // the Load itself / a straight copy
			return true
		}
		return sharesMemory(id)
	}

	// Fixpoint alias collection: `v := p.Load()`, `cols := *p.Load()`,
	// `base := bases[attr]`, `v, ok := cols[attr]`, `w = old`, range values
	// over frozen maps.
	for changed := true; changed; {
		changed = false
		add := func(id *ast.Ident) {
			if obj := identObj(id); obj != nil && !frozen[obj] {
				frozen[obj] = true
				changed = true
			}
		}
		ast.Inspect(body, func(n ast.Node) bool {
			switch s := n.(type) {
			case *ast.AssignStmt:
				for i, lhs := range s.Lhs {
					id, ok := lhs.(*ast.Ident)
					switch {
					case !ok:
					case len(s.Lhs) == len(s.Rhs):
						if aliases(id, s.Rhs[i]) {
							add(id)
						}
					case i == 0 && len(s.Rhs) == 1: // v, ok := m[k]
						if _, index := s.Rhs[0].(*ast.IndexExpr); index && aliases(id, s.Rhs[0]) {
							add(id)
						}
					}
				}
			case *ast.RangeStmt:
				if id, ok := s.Value.(*ast.Ident); ok && isFrozen(s.X) && sharesMemory(id) {
					add(id)
				}
			}
			return true
		})
	}

	report := func(pos ast.Node) {
		pass.Reportf(pos.Pos(), "write through a value loaded from atomic.Pointer: published versions are immutable")
	}

	ast.Inspect(body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range s.Lhs {
				if _, isIdent := lhs.(*ast.Ident); isIdent {
					continue // rebinding a variable is not a write-through
				}
				if isFrozen(lhs) {
					report(lhs)
				}
			}
		case *ast.IncDecStmt:
			if _, isIdent := s.X.(*ast.Ident); !isIdent && isFrozen(s.X) {
				report(s.X)
			}
		case *ast.CallExpr:
			if id, ok := s.Fun.(*ast.Ident); ok && id.Name == "copy" && len(s.Args) == 2 {
				if _, isBuiltin := pass.Info.Uses[id].(*types.Builtin); isBuiltin && isFrozen(s.Args[0]) {
					report(s.Args[0])
				}
			}
		}
		return true
	})
}
