package ppd

import (
	"fmt"
	"testing"

	"probpref/internal/rank"
	"probpref/internal/rim"
)

// storeDepth counts the levels of a session store: 1 for a leaf, one more
// for every concat layer above the deepest leaf.
func storeDepth(s SessionStore) int {
	c, ok := s.(*concatStore)
	if !ok {
		return 1
	}
	return 1 + max(storeDepth(c.base), storeDepth(c.tail))
}

// listsExactly checks that the store holds exactly the sessions with the
// given voter keys, in order, through Len, At and All alike.
func listsExactly(t *testing.T, what string, s SessionStore, want []string) {
	t.Helper()
	if s.Len() != len(want) {
		t.Fatalf("%s: Len = %d, want %d", what, s.Len(), len(want))
	}
	n := 0
	for i, sess := range s.All() {
		if i != n || sess.Key[0] != want[i] || s.At(i) != sess {
			t.Fatalf("%s: All yields (%d, %v) and At(%d) = %v, want session %d = %s", what, i, sess.Key, i, s.At(i).Key, n, want[n])
		}
		n++
	}
	if n != len(want) {
		t.Fatalf("%s: All yielded %d sessions, want %d", what, n, len(want))
	}
}

// Ingest appends one batch at a time for as long as a daemon runs. The
// store must not grow a level per append (At would cost O(appends) and All
// would yield through as many nested iterators), and growing must never
// disturb a version handed out earlier.
func TestAppendSessionsStaysShallow(t *testing.T) {
	db := figure1DB(t)
	model := rim.MustMallows(rank.Ranking{0, 1, 2, 3}, 0.4)
	keys := []string{"Ann", "Bob", "Dave"}
	const appends = 500
	versions := []*DB{db}
	for i := 0; i < appends; i++ {
		next, err := versions[i].AppendSessions("P", []*Session{{Key: []string{fmt.Sprintf("W%d", i), "7/7"}, Model: model}})
		if err != nil {
			t.Fatal(err)
		}
		versions = append(versions, next)
		keys = append(keys, fmt.Sprintf("W%d", i))
	}
	for v, ver := range versions {
		store := ver.Prefs["P"].Sessions
		if d := storeDepth(store); d > 2 {
			t.Fatalf("version %d: store is %d levels deep, want at most 2", v, d)
		}
		listsExactly(t, fmt.Sprintf("version %d", v), store, keys[:3+v])
	}
}

// AppendSessions may be called twice on one database (a retried ingest, a
// reference grown beside the served model). The two results must not share
// a tail they can both write.
func TestAppendSessionsForksAreIndependent(t *testing.T) {
	model := rim.MustMallows(rank.Ranking{0, 1, 2, 3}, 0.4)
	sess := func(name string) []*Session {
		return []*Session{{Key: []string{name, "7/7"}, Model: model}}
	}
	// Two appends first, so the fork point already is a concat store over
	// a RAM tail, the case that joins tails.
	base := figure1DB(t)
	for _, name := range []string{"Eve", "Frank"} {
		var err error
		if base, err = base.AppendSessions("P", sess(name)); err != nil {
			t.Fatal(err)
		}
	}
	left, err := base.AppendSessions("P", sess("Left"))
	if err != nil {
		t.Fatal(err)
	}
	right, err := base.AppendSessions("P", sess("Right"))
	if err != nil {
		t.Fatal(err)
	}
	leftMore, err := left.AppendSessions("P", sess("LeftAgain"))
	if err != nil {
		t.Fatal(err)
	}
	common := []string{"Ann", "Bob", "Dave", "Eve", "Frank"}
	listsExactly(t, "base", base.Prefs["P"].Sessions, common)
	listsExactly(t, "left", left.Prefs["P"].Sessions, append(common[:5:5], "Left"))
	listsExactly(t, "right", right.Prefs["P"].Sessions, append(common[:5:5], "Right"))
	listsExactly(t, "left grown again", leftMore.Prefs["P"].Sessions, append(common[:5:5], "Left", "LeftAgain"))
}
