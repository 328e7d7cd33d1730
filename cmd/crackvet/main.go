// Command crackvet runs the repo-invariant static analyzer suite over the
// packages the go command matches for the given patterns (default ./...,
// relative to the working directory) and applies the three checkers in
// internal/vet: frozenversion, lockpair, wirebounds (every decode-side
// allocation in internal/wire, internal/wal and internal/frame sized by
// frame.Reader.Count). benchmark/ is a nested module that ./... skips; run
// crackvet there too (`cd benchmark && crackvet ./...`). Each finding
// prints as `file:line: [check-name] message`; the process exits 1 when
// any finding remains, 2 on a loading error, and 0 on a clean tree.
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
	pkgs, err := vet.Load(".", os.Args[1:])
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
