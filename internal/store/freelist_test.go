package store

import "testing"

// TestSizeClasses: four classes per doubling, so a column is never more than
// a quarter larger than the chunk it serves, and a column of any capacity
// files under a class it can serve.
func TestSizeClasses(t *testing.T) {
	for n := 0; n < 70000; n++ {
		up := ClassUp(n)
		if up < n || (n > 2*minClass && up-n > n/4) {
			t.Fatalf("ClassUp(%d) = %d", n, up)
		}
		if ClassUp(up) != up || ClassDown(up) != up {
			t.Fatalf("class %d of %d is not a fixed point: up %d, down %d", up, n, ClassUp(up), ClassDown(up))
		}
		if down := ClassDown(n); down > n || (n >= minClass && ClassUp(down) != down) || (n >= minClass && down <= n/2) {
			t.Fatalf("ClassDown(%d) = %d", n, down)
		}
	}
}
