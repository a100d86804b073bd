package topology

import (
	"fmt"
	"slices"
	"testing"

	"github.com/daskv/daskv/internal/sched"
)

func TestLookupNWrapAroundStable(t *testing.T) {
	r, err := NewRing(servers(5), 64)
	if err != nil {
		t.Fatalf("NewRing: %v", err)
	}
	for i := 0; i < 200; i++ {
		k := fmt.Sprintf("wrap-%d", i)
		a := r.LookupN(k, 3)
		b := r.LookupN(k, 3)
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("LookupN unstable for %s: %v vs %v", k, a, b)
			}
		}
	}
}

func TestLookupNPrefixConsistency(t *testing.T) {
	// LookupN(k, 2) must be a prefix of LookupN(k, 4): replica sets
	// grow, they don't reshuffle.
	r, err := NewRing(servers(8), 64)
	if err != nil {
		t.Fatalf("NewRing: %v", err)
	}
	for i := 0; i < 200; i++ {
		k := fmt.Sprintf("prefix-%d", i)
		two := r.LookupN(k, 2)
		four := r.LookupN(k, 4)
		for j := range two {
			if two[j] != four[j] {
				t.Fatalf("replica prefix broke for %s: %v vs %v", k, two, four)
			}
		}
	}
}

func TestAddServerMovesOnlyNewOwnership(t *testing.T) {
	r, err := NewRing(servers(6), 64)
	if err != nil {
		t.Fatalf("NewRing: %v", err)
	}
	before := make(map[string]sched.ServerID)
	for i := 0; i < 3000; i++ {
		k := fmt.Sprintf("mv-%d", i)
		before[k] = r.Lookup(k)
	}
	if err := r.AddServer(42); err != nil {
		t.Fatalf("AddServer: %v", err)
	}
	for k, was := range before {
		now := r.Lookup(k)
		if now != was && now != 42 {
			t.Fatalf("key %s moved %d -> %d, not to the new server", k, was, now)
		}
	}
}

// TestLookupNDistinctExhaustive is the regression net for successor-set
// deduplication: with many virtual nodes per server, consecutive ring
// positions frequently belong to the same server, and a dedup bug would
// hand replica placement the same physical server twice. Checked for
// every replication factor up to the cluster size, across membership
// churn (vnode arrays are rebuilt on add/remove).
func TestLookupNDistinctExhaustive(t *testing.T) {
	r, err := NewRing(servers(6), 256)
	if err != nil {
		t.Fatalf("NewRing: %v", err)
	}
	check := func(stage string, members int) {
		t.Helper()
		for i := 0; i < 500; i++ {
			k := fmt.Sprintf("churn-key-%d", i)
			for n := 1; n <= members; n++ {
				set := r.LookupN(k, n)
				if len(set) != n {
					t.Fatalf("%s: LookupN(%q,%d) = %d servers", stage, k, n, len(set))
				}
				for a := 0; a < len(set); a++ {
					for b := a + 1; b < len(set); b++ {
						if set[a] == set[b] {
							t.Fatalf("%s: LookupN(%q,%d) duplicate server %d in %v",
								stage, k, n, set[a], set)
						}
					}
				}
			}
		}
	}
	check("initial", 6)
	if err := r.RemoveServer(sched.ServerID(2)); err != nil {
		t.Fatalf("RemoveServer: %v", err)
	}
	check("after remove", 5)
	if err := r.AddServer(sched.ServerID(9)); err != nil {
		t.Fatalf("AddServer: %v", err)
	}
	check("after add", 6)
}

func TestAppendLookupNMatchesLookupN(t *testing.T) {
	// The appended run must equal LookupN whatever dst already holds:
	// deduplication looks only at the run being appended.
	r, err := NewRing(servers(5), 64)
	if err != nil {
		t.Fatalf("NewRing: %v", err)
	}
	prefix := []sched.ServerID{0, 1, 2, 3, 4}
	for i := 0; i < 200; i++ {
		k := fmt.Sprintf("append-%d", i)
		for _, n := range []int{0, 1, 3, 9} {
			want := append(slices.Clone(prefix), r.LookupN(k, n)...)
			if got := r.AppendLookupN(slices.Clone(prefix), k, n); !slices.Equal(got, want) {
				t.Fatalf("AppendLookupN(%s, %d) after %v = %v, want %v", k, n, prefix, got, want)
			}
		}
	}
}
