// Command crackvet runs the repo-invariant static analyzer suite over the
// crackstore module. It type-checks every package reachable from the given
// patterns (default ./...) and applies the five checkers in internal/vet:
// frozenversion, lockpair, wirebounds (every decode-side
// allocation in internal/wire, internal/wal and internal/frame sized by
// frame.Reader.Count), exhaustive, detrand. Each
// finding prints as `file:line: [check-name] message`; the process exits 1
// when any unsuppressed finding remains, 2 on a loading/usage error, and 0
// on a clean tree. Pragma-suppressed findings (//crackvet:ignore) are
// counted and summarized so exceptions stay visible in CI logs.
//
// Usage:
//
//	crackvet [-json] [-check name,name] [packages]
//
// With -json, findings are emitted as a single JSON document (an object
// with "findings" and "suppressed" arrays; each entry has file, line,
// check, message) instead of the line-oriented text form.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"crackstore/internal/vet"
)

type jsonFinding struct {
	File    string `json:"file"`
	Line    int    `json:"line"`
	Check   string `json:"check"`
	Message string `json:"message"`
}

type jsonOutput struct {
	Findings   []jsonFinding `json:"findings"`
	Suppressed []jsonFinding `json:"suppressed"`
}

func toJSON(fs []vet.Finding) []jsonFinding {
	out := make([]jsonFinding, 0, len(fs))
	for _, f := range fs {
		out = append(out, jsonFinding{
			File: f.Pos.Filename, Line: f.Pos.Line,
			Check: f.Check, Message: f.Message,
		})
	}
	return out
}

func main() {
	jsonOut := flag.Bool("json", false, "emit findings as JSON")
	checkList := flag.String("check", "", "comma-separated checker names to run (default: all)")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: crackvet [-json] [-check name,name] [packages]\n\nCheckers:\n")
		for _, c := range vet.All {
			fmt.Fprintf(os.Stderr, "  %-14s %s\n", c.Name, c.Doc)
		}
	}
	flag.Parse()

	checkers := vet.All
	if *checkList != "" {
		byName := make(map[string]*vet.Checker)
		for _, c := range vet.All {
			byName[c.Name] = c
		}
		checkers = nil
		for _, name := range strings.Split(*checkList, ",") {
			name = strings.TrimSpace(name)
			c, ok := byName[name]
			if !ok {
				fmt.Fprintf(os.Stderr, "crackvet: unknown checker %q\n", name)
				os.Exit(2)
			}
			checkers = append(checkers, c)
		}
	}

	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(os.Stderr, "crackvet: %v\n", err)
		os.Exit(2)
	}
	pkgs, err := vet.Load(cwd, flag.Args())
	if err != nil {
		fmt.Fprintf(os.Stderr, "crackvet: %v\n", err)
		os.Exit(2)
	}

	res := vet.Run(pkgs, checkers)

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(jsonOutput{
			Findings:   toJSON(res.Findings),
			Suppressed: toJSON(res.Suppressed),
		}); err != nil {
			fmt.Fprintf(os.Stderr, "crackvet: %v\n", err)
			os.Exit(2)
		}
	} else {
		for _, f := range res.Findings {
			fmt.Println(f)
		}
		if n := len(res.Suppressed); n > 0 {
			fmt.Fprintf(os.Stderr, "crackvet: %d finding(s) suppressed by //crackvet:ignore pragmas:\n", n)
			for _, f := range res.Suppressed {
				fmt.Fprintf(os.Stderr, "  %s\n", f)
			}
		}
	}
	if len(res.Findings) > 0 {
		os.Exit(1)
	}
}
