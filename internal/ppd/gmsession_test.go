package ppd

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"probpref/internal/rank"
	"probpref/internal/rim"
)

// gmDB builds the Figure 1 database with a Generalized Mallows session
// alongside the Mallows ones: sessions carrying any RIM-backed model are
// first-class in the PPD.
func gmDB(t *testing.T) *DB {
	t.Helper()
	db := figure1DB(t)
	gm := rim.MustGeneralizedMallows(rank.Ranking{1, 2, 3, 0}, []float64{1, 0.1, 0.9, 0.4})
	pref := db.Prefs["P"]
	pref.Sessions = ConcatSessions(pref.Sessions, SessionSlice{{Key: []string{"Eve", "6/5"}, Model: gm}})
	return db
}

func TestGeneralizedMallowsSessionExactEval(t *testing.T) {
	db := gmDB(t)
	eng := &Engine{DB: db, Method: MethodAuto}
	q := MustParse(`P(_, _; c1; c2), C(c1, _, "F", _, _, _), C(c2, _, "M", _, _, _)`)
	res, err := evalBool(eng, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerSession) != 4 {
		t.Fatalf("sessions = %d, want 4", len(res.PerSession))
	}
	// The GM session's probability must match brute-force enumeration of
	// its grounded union.
	g, err := NewGrounder(db, q)
	if err != nil {
		t.Fatal(err)
	}
	eve := db.Prefs["P"].Sessions.At(3)
	gq, err := g.GroundSession(eve)
	if err != nil {
		t.Fatal(err)
	}
	want := 0.0
	rank.ForEachPermutation(db.M(), func(tau rank.Ranking) bool {
		if gq.Union.Matches(tau, db.Labeling()) {
			want += eve.Model.Prob(tau)
		}
		return true
	})
	got := res.PerSession[3].Prob
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("GM session prob %v, brute %v", got, want)
	}
}

func TestGeneralizedMallowsSessionAllExactMethods(t *testing.T) {
	db := gmDB(t)
	q := MustParse(`P(_, _; c1; c2), C(c1, "D", _, _, e, _), C(c2, "R", _, _, e, _)`)
	var ref *Response
	for _, m := range []Method{MethodAuto, MethodTwoLabel, MethodBipartite, MethodGeneral, MethodRelOrder} {
		eng := &Engine{DB: db, Method: m}
		res, err := evalBool(eng, q)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if ref == nil {
			ref = res
			continue
		}
		if math.Abs(res.Prob-ref.Prob) > 1e-9 {
			t.Fatalf("%v: prob %v, reference %v", m, res.Prob, ref.Prob)
		}
	}
}

func TestGeneralizedMallowsSessionSamplerFallback(t *testing.T) {
	db := gmDB(t)
	exact, err := evalBool(&Engine{DB: db, Method: MethodAuto},
		MustParse(`P(_, _; c1; c2), C(c1, _, "F", _, _, _), C(c2, _, "M", _, _, _)`))
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []Method{MethodMISAdaptive, MethodMISLite, MethodRejection} {
		eng := Tune(&Engine{DB: db, Method: m, Rng: rand.New(rand.NewSource(61))}, Tuning{Draws: 30000, Samples: 2000})
		res, err := evalBool(eng,
			MustParse(`P(_, _; c1; c2), C(c1, _, "F", _, _, _), C(c2, _, "M", _, _, _)`))
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		// The GM session must be estimated (not erroring, not zero) and be
		// close to the exact value.
		got := res.PerSession[3].Prob
		want := exact.PerSession[3].Prob
		if math.Abs(got-want) > 0.1*want+0.01 {
			t.Fatalf("%v: GM session est %v, exact %v", m, got, want)
		}
	}
}

func TestGeneralizedMallowsSessionJSONRoundTrip(t *testing.T) {
	db := gmDB(t)
	pref := db.Prefs["P"]
	var buf bytes.Buffer
	if err := pref.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := LoadPrefJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Sessions.Len() != 4 {
		t.Fatalf("sessions = %d, want 4", back.Sessions.Len())
	}
	for i := range back.Sessions.All() {
		if back.Sessions.At(i).Model.Rehash() != pref.Sessions.At(i).Model.Rehash() {
			t.Fatalf("session %d model mismatch after round trip", i)
		}
	}
	if _, ok := back.Sessions.At(3).Model.(*rim.GeneralizedMallows); !ok {
		t.Fatalf("session 3 deserialized as %T, want GeneralizedMallows", back.Sessions.At(3).Model)
	}
}

func TestUnsupportedSessionModelJSON(t *testing.T) {
	// Arbitrary RIM insertion matrices are valid session models but are not
	// serializable; WriteJSON must say so rather than corrupt the output.
	mdl := rim.MustNew(rank.Identity(3), [][]float64{{1}, {0.25, 0.75}, {0.2, 0.3, 0.5}})
	pref := &PrefRelation{
		Name:         "R",
		SessionAttrs: []string{"k"},
		Sessions:     SessionSlice{{Key: []string{"x"}, Model: mdl}},
	}
	var buf bytes.Buffer
	if err := pref.WriteJSON(&buf); err == nil {
		t.Fatal("want serialization error for raw RIM session")
	}
}

func TestGeneralizedMallowsSessionGrouping(t *testing.T) {
	// Two sessions sharing one GM instance must be solved once.
	db := figure1DB(t)
	gm := rim.MustGeneralizedMallows(rank.Ranking{1, 2, 3, 0}, []float64{1, 0.2, 0.2, 0.2})
	pref := db.Prefs["P"]
	pref.Sessions = ConcatSessions(pref.Sessions, SessionSlice{
		{Key: []string{"Eve", "6/5"}, Model: gm},
		{Key: []string{"Finn", "6/5"}, Model: gm},
	})
	eng := &Engine{DB: db, Method: MethodAuto}
	res, err := evalBool(eng, MustParse(`P(_, _; c1; c2), C(c1, _, "F", _, _, _), C(c2, _, "M", _, _, _)`))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerSession) != 5 {
		t.Fatalf("sessions = %d, want 5", len(res.PerSession))
	}
	// 3 distinct Mallows groups (Ann/Dave differ in phi, Bob in center) + 1
	// shared GM group.
	if res.Solves != 4 {
		t.Fatalf("solves = %d, want 4", res.Solves)
	}
	if math.Abs(res.PerSession[3].Prob-res.PerSession[4].Prob) > 1e-15 {
		t.Fatal("shared-model sessions got different probabilities")
	}
}
