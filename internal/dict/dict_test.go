package dict

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestBuildOrderPreserving(t *testing.T) {
	d := Build([]string{"pear", "apple", "banana", "apple"})
	if d.Len() != 3 {
		t.Fatalf("Len = %d, want 3", d.Len())
	}
	a, _ := d.Code("apple")
	b, _ := d.Code("banana")
	p, _ := d.Code("pear")
	if !(a < b && b < p) {
		t.Fatalf("codes not order-preserving: %d %d %d", a, b, p)
	}
	if d.String(a) != "apple" {
		t.Fatal("round trip failed")
	}
	if _, ok := d.Code("kiwi"); ok {
		t.Fatal("unknown string should not have a code")
	}
}

func TestEncode(t *testing.T) {
	d := Build([]string{"x", "y"})
	got := d.Encode([]string{"y", "z", "x"})
	if got[1] != -1 {
		t.Fatal("unknown string must encode to -1")
	}
	if d.String(got[0]) != "y" || d.String(got[2]) != "x" {
		t.Fatal("encode mismatch")
	}
}

func TestRangePred(t *testing.T) {
	d := Build([]string{"aa", "ab", "b", "ca", "cb"})
	p := d.RangePred("ab", "ca")
	for _, tc := range []struct {
		s    string
		want bool
	}{{"aa", false}, {"ab", true}, {"b", true}, {"ca", true}, {"cb", false}} {
		c, _ := d.Code(tc.s)
		if p.Matches(c) != tc.want {
			t.Errorf("RangePred(ab,ca).Matches(%q) = %v, want %v", tc.s, p.Matches(c), tc.want)
		}
	}
	// Bounds absent from the dictionary.
	p = d.RangePred("a", "bzzz")
	for _, tc := range []struct {
		s    string
		want bool
	}{{"aa", true}, {"b", true}, {"ca", false}} {
		c, _ := d.Code(tc.s)
		if p.Matches(c) != tc.want {
			t.Errorf("RangePred(a,bzzz).Matches(%q) = %v, want %v", tc.s, p.Matches(c), tc.want)
		}
	}
}

func TestPrefixPred(t *testing.T) {
	d := Build([]string{"car", "cart", "cat", "dog", "ca"})
	p := d.PrefixPred("ca")
	for _, tc := range []struct {
		s    string
		want bool
	}{{"ca", true}, {"car", true}, {"cart", true}, {"cat", true}, {"dog", false}} {
		c, _ := d.Code(tc.s)
		if p.Matches(c) != tc.want {
			t.Errorf("PrefixPred(ca).Matches(%q) = %v, want %v", tc.s, p.Matches(c), tc.want)
		}
	}
}

func TestPrefixPredEdgeCases(t *testing.T) {
	d := Build([]string{"a", "b", string([]byte{0xff, 0xff})})
	// Empty prefix matches everything.
	p := d.PrefixPred("")
	if got := countMatches(d, p); got != 3 {
		t.Fatalf("empty prefix matched %d, want 3", got)
	}
	// All-0xff prefix has no successor; must still terminate and match.
	p = d.PrefixPred(string([]byte{0xff}))
	if got := countMatches(d, p); got != 1 {
		t.Fatalf("0xff prefix matched %d, want 1", got)
	}
}

func countMatches(d *Dict, p interface{ Matches(Value) bool }) int {
	n := 0
	for c := 0; c < d.Len(); c++ {
		if p.Matches(Value(c)) {
			n++
		}
	}
	return n
}

// Property: for random string sets, code comparisons agree with string
// comparisons, and PrefixPred matches exactly strings.HasPrefix.
func TestQuickOrderAndPrefix(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(100)
		vals := make([]string, n)
		for i := range vals {
			vals[i] = randWord(rng)
		}
		d := Build(vals)
		for k := 0; k < 30; k++ {
			s1, s2 := vals[rng.Intn(n)], vals[rng.Intn(n)]
			c1, _ := d.Code(s1)
			c2, _ := d.Code(s2)
			if (s1 < s2) != (c1 < c2) || (s1 == s2) != (c1 == c2) {
				return false
			}
		}
		prefix := randWord(rng)
		if cut := 1 + rng.Intn(2); cut < len(prefix) {
			prefix = prefix[:cut]
		}
		p := d.PrefixPred(prefix)
		for _, s := range vals {
			c, _ := d.Code(s)
			if p.Matches(c) != strings.HasPrefix(s, prefix) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func randWord(rng *rand.Rand) string {
	n := 1 + rng.Intn(6)
	b := make([]byte, n)
	for i := range b {
		b[i] = byte('a' + rng.Intn(4))
	}
	return string(b)
}

// Property: RangePred(lo,hi) matches exactly lo <= s <= hi.
func TestQuickRangePred(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(80)
		vals := make([]string, n)
		for i := range vals {
			vals[i] = randWord(rng)
		}
		d := Build(vals)
		lo, hi := randWord(rng), randWord(rng)
		if lo > hi {
			lo, hi = hi, lo
		}
		p := d.RangePred(lo, hi)
		for _, s := range vals {
			c, _ := d.Code(s)
			if p.Matches(c) != (s >= lo && s <= hi) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestSortedCodesRoundTrip(t *testing.T) {
	words := []string{"delta", "alpha", "charlie", "bravo"}
	d := Build(words)
	codes := d.Encode(words)
	sort.Slice(codes, func(i, j int) bool { return codes[i] < codes[j] })
	var got []string
	for _, c := range codes {
		got = append(got, d.String(c))
	}
	if fmt.Sprint(got) != "[alpha bravo charlie delta]" {
		t.Fatalf("got %v", got)
	}
}
