package vet

import (
	"go/ast"
	"go/types"
)

// DetRand keeps the deterministic kernel and tape-replay packages —
// internal/crack, internal/sideways (the one map store) and the
// internal/partial preset that names it — free of wall-clock
// and ambient-randomness calls. Those packages carry the
// layout-equivalence guarantees (replaying a crack tape must reproduce the
// exact physical layout; all policy pivots derive from a seeded hash), and
// a single time.Now or global math/rand call makes a replay diverge from
// the run that produced the tape. Explicitly seeded local generators
// (rand.New(rand.NewSource(seed))) are allowed; the process-global
// functions and the clock are not. Test files are exempt — they measure
// and fuzz, which is exactly what needs clocks and randomness.
var DetRand = &Checker{Name: "detrand", Run: runDetRand}

// detRandPackages names the deterministic packages by package name (name,
// not path, so fixtures match too).
var detRandPackages = map[string]bool{
	"crack":    true,
	"sideways": true,
	"partial":  true,
}

// detRandAllowed lists the math/rand functions that construct explicitly
// seeded local generators; everything else package-level draws from (or
// seeds) ambient process state.
var detRandAllowed = map[string]bool{
	"New":        true,
	"NewSource":  true,
	"NewPCG":     true, // math/rand/v2
	"NewZipf":    true,
	"NewChaCha8": true,
}

func runDetRand(pass *Pass) {
	if !detRandPackages[pass.Name] {
		return
	}
	for _, f := range pass.Files {
		if pass.IsTestFile(f) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			obj := pass.Info.Uses[sel.Sel]
			if obj == nil || obj.Pkg() == nil {
				return true
			}
			fn, isFunc := obj.(*types.Func)
			if !isFunc {
				return true
			}
			if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
				return true // a method on a local, explicitly seeded generator
			}
			switch obj.Pkg().Path() {
			case "time":
				if obj.Name() == "Now" || obj.Name() == "Since" || obj.Name() == "Until" {
					pass.Reportf(sel.Pos(), "time.%s in a deterministic kernel package: replay would diverge from the recorded run", obj.Name())
				}
			case "math/rand", "math/rand/v2":
				if !detRandAllowed[obj.Name()] {
					pass.Reportf(sel.Pos(), "global %s.%s in a deterministic kernel package: use an explicitly seeded rand.New(rand.NewSource(seed))", obj.Pkg().Name(), obj.Name())
				}
			}
			return true
		})
	}
}
