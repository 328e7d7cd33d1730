package vet

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// LockPair holds every sync.Mutex / sync.RWMutex section to a shape whose
// release a reader sees at a glance (doc.go "Invariants" states the rule).
// An acquire is X.Lock() or X.RLock() on a receiver chain recvChain can
// name, or an `if` whose condition calls X.TryLock() or X.TryRLock() (its
// body may block on X; X is held after the if). In the same block it is
// followed either (a) at once by `defer X.Unlock()` / `defer X.RUnlock()`,
// or (b) by the matching release, with nothing between them that calls
// anything but a builtin other than panic or a conversion, indexes or
// slices, returns, branches, defers, starts a goroutine, selects, or uses
// a channel — so the section can neither panic out through a call nor
// leave before its release. Anything else is a finding, and so is
// re-acquiring X while its deferred release is pending.
var LockPair = &Checker{Name: "lockpair", Run: runLockPair}

// isSyncLock reports whether t (after deref) is sync.Mutex or
// sync.RWMutex.
func isSyncLock(t types.Type) bool {
	s := strings.TrimPrefix(types.TypeString(t, nil), "*")
	return s == "sync.Mutex" || s == "sync.RWMutex"
}

// lockOp is one mutex method call on a nameable receiver chain.
type lockOp struct {
	key, name string // "s.mu", "RLock"
	read      bool   // RLock, TryRLock, RUnlock
	acquire   bool
	pos       token.Pos
}

func (p *Pass) lockCall(call *ast.CallExpr) (op lockOp, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return op, false
	}
	switch op.name = sel.Sel.Name; op.name {
	case "Lock", "RLock", "TryLock", "TryRLock", "Unlock", "RUnlock":
	default:
		return op, false
	}
	op.read = strings.Contains(op.name, "R")
	op.acquire = !strings.HasSuffix(op.name, "Unlock")
	op.pos = call.Pos()
	if tv, typed := p.Info.Types[sel.X]; !typed || !isSyncLock(tv.Type) {
		return op, false
	}
	op.key, ok = recvChain(sel.X)
	return op, ok
}

// stmtLock matches s as a statement that is one mutex call.
func (p *Pass) stmtLock(s ast.Stmt) (lockOp, bool) {
	if es, ok := s.(*ast.ExprStmt); ok {
		if call, ok := es.X.(*ast.CallExpr); ok {
			return p.lockCall(call)
		}
	}
	return lockOp{}, false
}

// acquireOf matches s as an acquire.
func (p *Pass) acquireOf(s ast.Stmt) (op lockOp, ok bool) {
	ifs, isIf := s.(*ast.IfStmt)
	if !isIf {
		op, ok = p.stmtLock(s)
		return op, ok && op.acquire && !strings.HasPrefix(op.name, "Try")
	}
	ast.Inspect(ifs.Cond, func(n ast.Node) bool {
		if call, isCall := n.(*ast.CallExpr); isCall && !ok {
			op, ok = p.lockCall(call)
			ok = ok && strings.HasPrefix(op.name, "Try")
		}
		return !ok
	})
	return op, ok
}

func runLockPair(pass *Pass) {
	blocksOn := make(map[*ast.BlockStmt]string) // a Try-if's body -> its lock
	funcBodies(pass.Package, func(body *ast.BlockStmt) {
		ast.Inspect(body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncLit:
				return false // its own body, visited on its own
			case *ast.BlockStmt:
				pass.lockBlock(n.List, blocksOn[n], blocksOn)
			case *ast.CaseClause:
				pass.lockBlock(n.Body, "", blocksOn)
			case *ast.CommClause:
				pass.lockBlock(n.Body, "", blocksOn)
			}
			return true
		})
	})
}

// lockBlock checks every acquire in one statement list, except those of
// blocking, the lock of the Try-if whose body the list is.
func (p *Pass) lockBlock(stmts []ast.Stmt, blocking string, blocksOn map[*ast.BlockStmt]string) {
	for i, s := range stmts {
		op, ok := p.acquireOf(s)
		if !ok || op.key == blocking {
			continue
		}
		if ifs, isIf := s.(*ast.IfStmt); isIf {
			blocksOn[ifs.Body] = op.key
		}
		p.lockSection(op, stmts[i+1:])
	}
}

// lockSection checks what follows one acquire in its block.
func (p *Pass) lockSection(op lockOp, rest []ast.Stmt) {
	if len(rest) > 0 {
		if d, ok := rest[0].(*ast.DeferStmt); ok {
			if rel, ok := p.lockCall(d.Call); ok && rel.key == op.key && !rel.acquire {
				p.checkMode(op, rel)
				p.reacquired(op.key, rest[1:])
				return
			}
		}
	}
	for _, s := range rest {
		if rel, ok := p.stmtLock(s); ok && rel.key == op.key && !rel.acquire {
			p.checkMode(op, rel)
			return
		}
		if p.crossing(op, s) {
			return
		}
	}
	p.Reportf(op.pos, "%s.%s has no release later in its block", op.key, op.name)
}

func (p *Pass) checkMode(op, rel lockOp) {
	if rel.read != op.read {
		p.Reportf(rel.pos, "%s released with %s but acquired with %s", op.key, rel.name, op.name)
	}
}

// crossing reports the first node of s that a section held under op may
// not contain; true when it found one.
func (p *Pass) crossing(op lockOp, s ast.Stmt) (found bool) {
	ast.Inspect(s, func(n ast.Node) bool {
		what := ""
		switch n := n.(type) {
		case *ast.FuncLit:
			return false // not run here
		case *ast.CallExpr:
			if inner, ok := p.lockCall(n); ok && inner.key == op.key && inner.acquire {
				p.Reportf(n.Pos(), "%s.%s while %s is held self-deadlocks", op.key, inner.name, op.key)
				found = true
			} else if ok && inner.key == op.key {
				p.Reportf(n.Pos(), "%s released on one arm only; release it in the block that acquired it", op.key)
				found = true
			} else if tv := p.Info.Types[ast.Unparen(n.Fun)]; !tv.IsType() && (!tv.IsBuiltin() || types.ExprString(n.Fun) == "panic") {
				what = "call"
			}
		case *ast.IndexExpr, *ast.IndexListExpr, *ast.SliceExpr:
			what = "index or slice"
		case *ast.ReturnStmt:
			what = "return"
		case *ast.BranchStmt:
			what = n.Tok.String()
		case *ast.DeferStmt:
			what = "defer"
		case *ast.GoStmt:
			what = "go statement"
		case *ast.SelectStmt:
			what = "select"
		case *ast.SendStmt:
			what = "channel send"
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				what = "channel receive"
			}
		case *ast.RangeStmt:
			if _, ok := p.Info.TypeOf(n.X).Underlying().(*types.Chan); ok {
				what = "channel receive"
			}
		}
		if what != "" {
			p.Reportf(n.Pos(), "%s is held across this %s; defer its release or release it before", op.key, what)
			found = true
		}
		return !found
	})
	return found
}

// reacquired flags every later acquire of key while its deferred release
// is pending: it self-deadlocks.
func (p *Pass) reacquired(key string, rest []ast.Stmt) {
	for _, s := range rest {
		ast.Inspect(s, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if op, ok := p.lockCall(call); ok && op.key == key && op.acquire {
					p.Reportf(op.pos, "%s.%s while a deferred release of %s is pending", key, op.name, key)
				}
			}
			_, lit := n.(*ast.FuncLit)
			return !lit
		})
	}
}
