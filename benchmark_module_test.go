package crackstore_test

import (
	"os"
	"os/exec"
	"testing"
)

// TestBenchmarkModuleVets type-checks benchmark/, the performance gate. It
// is its own module, built against internal/ through a replace and so
// outside `go test ./...`: without this, removing or renaming a symbol it
// imports breaks the next benchmark build, not Tier-1.
func TestBenchmarkModuleVets(t *testing.T) {
	if testing.Short() {
		t.Skip("runs go vet on the benchmark module")
	}
	cmd := exec.Command("go", "vet", "./...")
	cmd.Dir = "benchmark"
	cmd.Env = append(os.Environ(), "GOPROXY=off", "GOTOOLCHAIN=local")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go vet ./... in benchmark/: %v\n%s", err, out)
	}
}
