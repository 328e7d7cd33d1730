package vet

import (
	"path/filepath"
	"regexp"
	"testing"
)

// wantRe extracts the golden expectation from a fixture comment:
// `// want "regex"` on the line a finding must anchor to.
var wantRe = regexp.MustCompile(`// want "([^"]*)"`)

type want struct {
	re   *regexp.Regexp
	file string
	line int
	hit  bool
}

// fixture runs checkers over testdata/src/<name> and matches the findings
// one-to-one against the `// want` comments in the fixture sources: every
// finding must be wanted, every want must be found.
func fixture(t *testing.T, name string, checkers ...*Checker) []Finding {
	t.Helper()
	pkg, err := LoadDir(filepath.Join("testdata", "src", name))
	if err != nil {
		t.Fatalf("loading fixture %s: %v", name, err)
	}
	findings := Run([]*Package{pkg}, checkers)

	var wants []*want
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				wants = append(wants, &want{re: regexp.MustCompile(m[1]), file: pos.Filename, line: pos.Line})
			}
		}
	}
	for _, f := range findings {
		matched := false
		for _, w := range wants {
			if !w.hit && w.file == f.Pos.Filename && w.line == f.Pos.Line && w.re.MatchString(f.Message) {
				w.hit = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected finding: %s", f)
		}
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s:%d: no finding matching %q", w.file, w.line, w.re)
		}
	}
	return findings
}

func TestFrozenVersionFixture(t *testing.T)  { fixture(t, "frozenversion", FrozenVersion) }
func TestLockPairFixture(t *testing.T)       { fixture(t, "lockpair", LockPair) }
func TestWireFixture(t *testing.T)           { fixture(t, "wire", WireBounds, Exhaustive) }
func TestExhaustiveKindFixture(t *testing.T) { fixture(t, "exhaustive", Exhaustive) }
func TestExhaustiveWalFixture(t *testing.T)  { fixture(t, "walenum", Exhaustive, WireBounds) }
func TestExhaustiveObsFixture(t *testing.T)  { fixture(t, "obsstage", Exhaustive) }
func TestDetRandFixture(t *testing.T)        { fixture(t, "crack", DetRand) }

// TestCleanFixture: idiomatic code draws zero findings from the full suite.
func TestCleanFixture(t *testing.T) {
	if fs := fixture(t, "clean", All...); len(fs) != 0 {
		t.Fatalf("clean fixture not clean: %v", fs)
	}
}

// TestRepoInvariantsHold runs the full suite over the real module — the
// same gate CI applies via cmd/crackvet.
func TestRepoInvariantsHold(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-module type-check")
	}
	pkgs, err := Load(".", []string{"../../..."})
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	for _, f := range Run(pkgs, nil) {
		t.Errorf("%s", f)
	}
}
