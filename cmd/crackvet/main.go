// Command crackvet runs the repo-invariant static analyzer suite over the
// crackstore module. It type-checks every package reachable from the given
// patterns (default ./...) and applies the five checkers in internal/vet:
// frozenversion, lockpair, wirebounds (every decode-side
// allocation in internal/wire, internal/wal and internal/frame sized by
// frame.Reader.Count), exhaustive, detrand. Each
// finding prints as `file:line: [check-name] message`; the process exits 1
// when any finding remains, 2 on a loading error, and 0 on a clean tree.
//
// Usage:
//
//	crackvet [packages]
package main

import (
	"fmt"
	"os"

	"crackstore/internal/vet"
)

func main() {
	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(os.Stderr, "crackvet: %v\n", err)
		os.Exit(2)
	}
	pkgs, err := vet.Load(cwd, os.Args[1:])
	if err != nil {
		fmt.Fprintf(os.Stderr, "crackvet: %v\n", err)
		os.Exit(2)
	}
	findings := vet.Run(pkgs, nil)
	for _, f := range findings {
		fmt.Println(f)
	}
	if len(findings) > 0 {
		os.Exit(1)
	}
}
