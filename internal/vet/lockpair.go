package vet

import (
	"go/ast"
	"go/types"
)

// LockPair enforces sync.Mutex / sync.RWMutex discipline per function:
// Lock must pair with Unlock and RLock with RUnlock on every path (a
// return while a lock is held, or a branch that releases on one arm only,
// is the bug class behind the PR 7 per-tuple-RLock fix); acquiring a lock
// the function already holds (same receiver chain) is flagged as a
// self-deadlock; and releasing with the wrong method (Lock→RUnlock) is a
// pairing-class mismatch. Locks handed across function boundaries (a
// helper that locks for its caller) are out of scope: the checker only
// pairs what it can see inside one body, so it never reports a release
// without a visible acquire.
var LockPair = &Checker{
	Name: "lockpair",
	Doc:  "Lock/Unlock and RLock/RUnlock must pair on every path",
	Run:  runLockPair,
}

// lockMethodMode classifies the four mutex methods into (mode, acquire).
func lockMethodMode(name string) (mode string, acquire, ok bool) {
	switch name {
	case "Lock":
		return "W", true, true
	case "Unlock":
		return "W", false, true
	case "RLock":
		return "R", true, true
	case "RUnlock":
		return "R", false, true
	}
	return "", false, false
}

// isSyncLock reports whether t (after deref) is sync.Mutex or
// sync.RWMutex.
func isSyncLock(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return false
	}
	return obj.Name() == "Mutex" || obj.Name() == "RWMutex"
}

// lockEvent matches call as a mutex method call on a nameable receiver
// chain ("s.mu", "e.inner.statsMu").
func (p *Pass) lockEvent(call *ast.CallExpr, def bool) (event, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return event{}, false
	}
	mode, acquire, ok := lockMethodMode(sel.Sel.Name)
	if !ok {
		return event{}, false
	}
	tv, ok := p.Info.Types[sel.X]
	if !ok || !isSyncLock(tv.Type) {
		return event{}, false
	}
	key, ok := recvChain(sel.X)
	if !ok {
		return event{}, false
	}
	kind := evRelease
	if acquire {
		kind = evAcquire
	}
	return event{kind: kind, key: key, mode: mode, def: def, pos: call.Pos()}, true
}

func runLockPair(pass *Pass) {
	funcBodies(pass.Package, func(name string, body *ast.BlockStmt) {
		walkFlow(pass, body)
	})
}

// classify extracts the lock events of one simple statement.
func (w *flowWalker) classify(stmt ast.Stmt) []event {
	var evs []event
	switch s := stmt.(type) {
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			if ev, ok := w.pass.lockEvent(call, false); ok {
				evs = append(evs, ev)
			}
		}
	case *ast.DeferStmt:
		if ev, ok := w.pass.lockEvent(s.Call, true); ok {
			evs = append(evs, ev)
			break
		}
		// defer func() { ...; mu.Unlock(); ... }()
		if lit, ok := s.Call.Fun.(*ast.FuncLit); ok {
			ast.Inspect(lit.Body, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					if ev, ok := w.pass.lockEvent(call, true); ok && ev.kind == evRelease {
						evs = append(evs, ev)
					}
				}
				return true
			})
		}
	}
	return evs
}
