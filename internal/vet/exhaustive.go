package vet

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// Exhaustive requires every switch over the protocol and engine enums —
// wire.Op, wire.Status, engine.Kind, wal.RecType, obs.Stage — to either
// cover every constant declared for the type or carry an explicit default
// arm. The enums grow (a new op, a new status, a new engine kind, a new
// WAL record type, a new trace stage), and a switch silently falling
// through on the new value is how a decoder mis-frames, a dispatcher
// drops a request, recovery skips a logged write, or a trace renderer
// drops a span; the default arm forces each site to decide its
// unknown-value behavior.
var Exhaustive = &Checker{Name: "exhaustive", Run: runExhaustive}

// exhaustiveTypes names the enum types the checker covers, as
// packageName.TypeName (package name, not path, so fixtures match too).
var exhaustiveTypes = map[string]bool{
	"wire.Op":     true,
	"wire.Status": true,
	"engine.Kind": true,
	"wal.RecType": true,
	"obs.Stage":   true,
}

func runExhaustive(pass *Pass) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sw, ok := n.(*ast.SwitchStmt)
			if !ok || sw.Tag == nil {
				return true
			}
			tv, ok := pass.Info.Types[sw.Tag]
			if !ok || tv.Type == nil {
				return true
			}
			named, ok := tv.Type.(*types.Named)
			if !ok {
				return true
			}
			obj := named.Obj()
			if obj.Pkg() == nil {
				return true
			}
			typeName := obj.Pkg().Name() + "." + obj.Name()
			if !exhaustiveTypes[typeName] {
				return true
			}

			// Every package-level constant of the tag type, by value (so a
			// renamed alias constant still counts as covering its value).
			declared := make(map[string]string) // exact value -> first name
			scope := obj.Pkg().Scope()
			for _, name := range scope.Names() {
				c, ok := scope.Lookup(name).(*types.Const)
				if !ok || !types.Identical(c.Type(), named) {
					continue
				}
				v := c.Val().ExactString()
				if _, ok := declared[v]; !ok {
					declared[v] = name
				}
			}
			if len(declared) == 0 {
				return true
			}

			covered := make(map[string]bool)
			hasDefault := false
			for _, cs := range sw.Body.List {
				cc, ok := cs.(*ast.CaseClause)
				if !ok {
					continue
				}
				if cc.List == nil {
					hasDefault = true
					continue
				}
				for _, e := range cc.List {
					if etv, ok := pass.Info.Types[e]; ok && etv.Value != nil {
						covered[etv.Value.ExactString()] = true
					}
				}
			}
			if hasDefault {
				return true
			}
			var missing []string
			for v, name := range declared {
				if !covered[v] {
					missing = append(missing, name)
				}
			}
			if len(missing) > 0 {
				sort.Strings(missing)
				pass.Reportf(sw.Pos(), "switch over %s misses %s and has no default arm",
					typeName, strings.Join(missing, ", "))
			}
			return true
		})
	}
}
