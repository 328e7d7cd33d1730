package vet

import (
	"go/ast"
	"go/token"
	"go/types"
)

// The path walker is lockpair's engine: an abstract interpretation of one
// function body that tracks a set of held mutexes across the
// statement-level control flow — sequencing, if/else, loops, switch/select,
// return — and reports Lock/Unlock and RLock/RUnlock pairing violations.
// Function literals are walked as independent bodies (their statements
// execute at another time), and a deferred release makes a mutex safe on
// every subsequent path.

type evKind int

const (
	evAcquire evKind = iota
	evRelease
)

// event is one acquire/release action extracted from a statement.
type event struct {
	kind evKind
	key  string // resource identity, function-local
	mode string // pairing class ("W"/"R")
	def  bool   // release registered via defer
	pos  token.Pos
}

// heldRes is one currently held resource.
type heldRes struct {
	mode string
	pos  token.Pos
}

type flowState struct {
	held     map[string]*heldRes
	deferred map[string]string // key -> mode of the pending deferred release
}

func newFlowState() *flowState {
	return &flowState{held: make(map[string]*heldRes), deferred: make(map[string]string)}
}

func (s *flowState) clone() *flowState {
	c := newFlowState()
	for k, h := range s.held {
		hc := *h
		c.held[k] = &hc
	}
	for k, m := range s.deferred {
		c.deferred[k] = m
	}
	return c
}

type flowWalker struct {
	pass *Pass
}

func walkFlow(pass *Pass, body *ast.BlockStmt) {
	w := &flowWalker{pass: pass}
	st := newFlowState()
	if !w.walkStmts(body.List, st) {
		for k, h := range st.held {
			if _, ok := st.deferred[k]; !ok {
				w.leak(k, h, h.pos, "not released before the function returns")
			}
		}
	}
}

var (
	relName = map[string]string{"W": "Unlock", "R": "RUnlock"}
	acqName = map[string]string{"W": "Lock", "R": "RLock"}
)

// leak reports a mutex still held when a path leaves the function (at is
// the return position, or the acquire position on fall-through and
// loop-iteration leaks).
func (w *flowWalker) leak(key string, h *heldRes, at token.Pos, how string) {
	w.pass.Reportf(at, "%s %s (acquired with %s and never released on this path)",
		key, how, acqName[h.mode])
}

// walkStmts interprets a statement list; true means every path through the
// list terminates (return/panic/branch) before falling off the end.
func (w *flowWalker) walkStmts(stmts []ast.Stmt, st *flowState) bool {
	for _, s := range stmts {
		if w.walkStmt(s, st) {
			return true
		}
	}
	return false
}

func (w *flowWalker) walkStmt(s ast.Stmt, st *flowState) bool {
	switch s := s.(type) {
	case *ast.ReturnStmt:
		for k, h := range st.held {
			if _, ok := st.deferred[k]; !ok {
				w.leak(k, h, s.Pos(), "still held at return")
			}
		}
		return true

	case *ast.BranchStmt:
		// break/continue/goto: drop the path rather than model the jump.
		return true

	case *ast.BlockStmt:
		return w.walkStmts(s.List, st)

	case *ast.LabeledStmt:
		return w.walkStmt(s.Stmt, st)

	case *ast.IfStmt:
		if s.Init != nil {
			w.walkStmt(s.Init, st)
		}
		bodySt := st.clone()
		bodyTerm := w.walkStmts(s.Body.List, bodySt)
		elseSt := st.clone()
		elseTerm := false
		if s.Else != nil {
			elseTerm = w.walkStmt(s.Else, elseSt)
		}
		return w.merge(st, s.End(), []branchOut{{bodySt, bodyTerm}, {elseSt, elseTerm}})

	case *ast.ForStmt:
		if s.Init != nil {
			w.walkStmt(s.Init, st)
		}
		w.loopBody(s.Body, st)
		return false

	case *ast.RangeStmt:
		w.loopBody(s.Body, st)
		return false

	case *ast.SwitchStmt:
		if s.Init != nil {
			w.walkStmt(s.Init, st)
		}
		return w.clauses(s.Body, st, s.End(), false)

	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			w.walkStmt(s.Init, st)
		}
		return w.clauses(s.Body, st, s.End(), false)

	case *ast.SelectStmt:
		// A select with no default blocks until one clause runs, but for
		// pairing purposes clauses merge exactly like switch cases.
		return w.clauses(s.Body, st, s.End(), true)

	case *ast.DeferStmt:
		w.apply(w.classify(s), st)
		return false

	default:
		w.apply(w.classify(s), st)
		return w.isTerminator(s)
	}
}

func (w *flowWalker) loopBody(body *ast.BlockStmt, st *flowState) {
	pre := st.clone()
	bodySt := st.clone()
	w.walkStmts(body.List, bodySt)
	// A resource acquired inside the iteration and still held at its end
	// leaks once per pass around the loop.
	for k, h := range bodySt.held {
		if _, was := pre.held[k]; !was {
			if _, ok := bodySt.deferred[k]; !ok {
				w.leak(k, h, h.pos, "acquired in a loop and not released by the end of the iteration")
			}
		}
	}
	// Continue after the loop from the zero-iteration state.
	*st = *pre
}

type branchOut struct {
	st   *flowState
	term bool
}

// clauses walks each case/comm clause of body as a branch and merges.
func (w *flowWalker) clauses(body *ast.BlockStmt, st *flowState, end token.Pos, isSelect bool) bool {
	var outs []branchOut
	hasDefault := false
	for _, cs := range body.List {
		var stmts []ast.Stmt
		switch c := cs.(type) {
		case *ast.CaseClause:
			if c.List == nil {
				hasDefault = true
			}
			stmts = c.Body
		case *ast.CommClause:
			if c.Comm == nil {
				hasDefault = true
			}
			bs := st.clone()
			if c.Comm != nil {
				w.walkStmt(c.Comm, bs)
			}
			outs = append(outs, branchOut{bs, w.walkStmts(c.Body, bs)})
			continue
		}
		bs := st.clone()
		outs = append(outs, branchOut{bs, w.walkStmts(stmts, bs)})
	}
	if !hasDefault && !isSelect {
		// The tag may match no case: the fall-through state is a branch too.
		outs = append(outs, branchOut{st.clone(), false})
	}
	if len(outs) == 0 {
		return false
	}
	return w.merge(st, end, outs)
}

// merge folds branch out-states back into st; true when every branch
// terminated. A mutex held in some but not all surviving branches —
// released (or acquired) on one path only — is reported as a divergence
// and dropped (so one bug draws one report).
func (w *flowWalker) merge(st *flowState, at token.Pos, outs []branchOut) bool {
	var live []*flowState
	for _, o := range outs {
		if !o.term {
			live = append(live, o.st)
		}
	}
	if len(live) == 0 {
		return true
	}
	held := make(map[string]*heldRes)
	for k, h := range live[0].held {
		inAll := true
		for _, o := range live[1:] {
			if _, ok := o.held[k]; !ok {
				inAll = false
				break
			}
		}
		if inAll {
			hc := *h
			held[k] = &hc
		}
	}
	for _, o := range live {
		for k, h := range o.held {
			if _, ok := held[k]; ok {
				continue
			}
			if _, pending := o.deferred[k]; pending {
				continue
			}
			w.pass.Reportf(h.pos, "%s is released on some paths but still held on others", k)
		}
	}
	deferred := make(map[string]string)
	for k, m := range live[0].deferred {
		inAll := true
		for _, o := range live[1:] {
			if _, ok := o.deferred[k]; !ok {
				inAll = false
				break
			}
		}
		if inAll {
			deferred[k] = m
		}
	}
	st.held = held
	st.deferred = deferred
	return false
}

// apply interprets one statement's events against the state.
func (w *flowWalker) apply(evs []event, st *flowState) {
	for _, e := range evs {
		switch e.kind {
		case evAcquire:
			prev, ok := st.held[e.key]
			if mode, pending := st.deferred[e.key]; !ok && pending {
				prev, ok = &heldRes{mode: mode, pos: e.pos}, true
			}
			if ok {
				w.pass.Reportf(e.pos, "%s.%s: %s is already held here (acquired with %s); double acquire self-deadlocks",
					e.key, acqName[e.mode], e.key, acqName[prev.mode])
				continue
			}
			st.held[e.key] = &heldRes{mode: e.mode, pos: e.pos}
		case evRelease:
			prev, ok := st.held[e.key]
			if !ok {
				if _, pending := st.deferred[e.key]; pending && !e.def {
					w.pass.Reportf(e.pos, "%s unlocked here but a deferred unlock is still pending (double release)", e.key)
				}
				if e.def {
					// Deferred release with no visible acquire yet: arm it
					// so a later acquire in this function is covered.
					st.deferred[e.key] = e.mode
				}
				continue
			}
			if prev.mode != e.mode {
				w.pass.Reportf(e.pos, "%s released with %s but was acquired with %s",
					e.key, relName[e.mode], acqName[prev.mode])
			}
			delete(st.held, e.key)
			if e.def {
				st.deferred[e.key] = e.mode
			}
		}
	}
}

// isTerminator reports statements that end the path without a return:
// panic, os.Exit/runtime.Goexit/log.Fatal* (package-level), and the
// testing.T family (Fatal, Fatalf, FailNow, Skip*, which stop the test
// goroutine). Method calls named Exit on ordinary values are NOT
// terminators — only package functions are.
func (w *flowWalker) isTerminator(s ast.Stmt) bool {
	es, ok := s.(*ast.ExprStmt)
	if !ok {
		return false
	}
	call, ok := es.X.(*ast.CallExpr)
	if !ok {
		return false
	}
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return fun.Name == "panic"
	case *ast.SelectorExpr:
		id, ok := fun.X.(*ast.Ident)
		if !ok {
			return false
		}
		_, isPkg := w.pass.Info.Uses[id].(*types.PkgName)
		switch fun.Sel.Name {
		case "Exit", "Goexit", "Fatalln":
			return isPkg // os.Exit, runtime.Goexit, log.Fatalln
		case "Fatal", "Fatalf", "FailNow", "Skip", "Skipf", "SkipNow":
			return true // log.Fatal* or (*testing.T) — both end the path
		}
	}
	return false
}
