package ppd

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func TestRelationCSVRoundTrip(t *testing.T) {
	db := figure1DB(t)
	var buf bytes.Buffer
	if err := db.ItemRelation.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := LoadRelationCSV("C", &buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Attrs) != 6 || len(back.Tuples) != 4 {
		t.Fatalf("attrs=%d tuples=%d", len(back.Attrs), len(back.Tuples))
	}
	if back.Tuples[0][0] != "Trump" || back.Tuples[3][5] != "S" {
		t.Fatalf("tuples corrupted: %v", back.Tuples)
	}
}

func TestLoadRelationCSVErrors(t *testing.T) {
	if _, err := LoadRelationCSV("X", strings.NewReader("")); err == nil {
		t.Error("empty CSV accepted")
	}
	if _, err := LoadRelationCSV("X", strings.NewReader("a,b\n1\n")); err == nil {
		t.Error("ragged CSV accepted")
	}
}

func TestPrefJSONRoundTrip(t *testing.T) {
	db := figure1DB(t)
	orig := db.Prefs["P"]
	var buf bytes.Buffer
	if err := orig.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := LoadPrefJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Name != "P" || back.Sessions.Len() != 3 {
		t.Fatalf("name=%q sessions=%d", back.Name, back.Sessions.Len())
	}
	for i, s := range back.Sessions.All() {
		o := orig.Sessions.At(i)
		if s.Model.Rehash() != o.Model.Rehash() {
			t.Fatalf("session %d model mismatch", i)
		}
		if s.Key[0] != o.Key[0] || s.Key[1] != o.Key[1] {
			t.Fatalf("session %d key mismatch", i)
		}
	}
	// Ann and Dave share a center but not phi; no sharing. Re-serialize a
	// relation with duplicated models and verify instance sharing.
	dup := &PrefRelation{
		Name:         "P2",
		SessionAttrs: []string{"voter", "date"},
		Sessions: SessionSlice{
			orig.Sessions.At(0),
			{Key: []string{"Eve", "5/5"}, Model: orig.Sessions.At(0).Model},
		},
	}
	buf.Reset()
	if err := dup.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err = LoadPrefJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Sessions.At(0).Model != back.Sessions.At(1).Model {
		t.Fatal("identical models not shared after load")
	}
}

func TestLoadPrefJSONErrors(t *testing.T) {
	if _, err := LoadPrefJSON(strings.NewReader("{")); err == nil {
		t.Error("truncated JSON accepted")
	}
	bad := `{"name":"P","session_attrs":["v"],"sessions":[{"key":["a"],"sigma":[0,0],"phi":0.5}]}`
	if _, err := LoadPrefJSON(strings.NewReader(bad)); err == nil {
		t.Error("invalid sigma accepted")
	}
}

func TestExplain(t *testing.T) {
	db := figure1DB(t)
	eng := &Engine{DB: db, Method: MethodAuto}

	// Itemwise two-label query.
	ex, err := eng.Explain(MustParse(`P(_, _; c1; c2), C(c1, _, F, _, _, _), C(c2, _, M, _, _, _)`))
	if err != nil {
		t.Fatal(err)
	}
	if !ex.Itemwise || !ex.AllTwoLabel || ex.Recommended != MethodTwoLabel {
		t.Fatalf("explanation = %+v", ex)
	}
	if ex.LiveSessions != 3 || ex.DistinctGroups != 3 {
		t.Fatalf("live=%d groups=%d", ex.LiveSessions, ex.DistinctGroups)
	}

	// Hard query with grounded variable e.
	ex, err = eng.Explain(MustParse(`P(_, _; c1; c2), C(c1, D, _, _, e, _), C(c2, R, _, _, e, _)`))
	if err != nil {
		t.Fatal(err)
	}
	if ex.Itemwise {
		t.Fatal("Q2 should not be itemwise")
	}
	found := false
	for _, v := range ex.GroundVars {
		if v == "e" {
			found = true
		}
	}
	if !found {
		t.Fatalf("ground vars = %v, want e", ex.GroundVars)
	}
	if ex.MaxUnion != 2 {
		t.Fatalf("max union = %d", ex.MaxUnion)
	}
	out := ex.String()
	for _, want := range []string{"hard (non-itemwise)", "two-label", "grounded vars: e"} {
		if !strings.Contains(out, want) {
			t.Errorf("explanation output missing %q:\n%s", want, out)
		}
	}

	// Chain query recommends relorder.
	ex, err = eng.Explain(MustParse(`P(_, _; c1; c2), P(_, _; c2; c3), C(c1, _, F, _, _, _), C(c2, D, _, _, _, _), C(c3, R, _, _, _, _)`))
	if err != nil {
		t.Fatal(err)
	}
	if ex.AllBipartite || ex.Recommended != MethodRelOrder {
		t.Fatalf("chain explanation = %+v", ex)
	}
}

func TestExplainMatchesEval(t *testing.T) {
	db := figure1DB(t)
	eng := &Engine{DB: db, Method: MethodAuto}
	q := MustParse(`P(_, _; c1; c2), C(c1, D, _, _, e, _), C(c2, R, _, _, e, _)`)
	ex, err := eng.Explain(q)
	if err != nil {
		t.Fatal(err)
	}
	res, err := evalBool(eng, q)
	if err != nil {
		t.Fatal(err)
	}
	if ex.LiveSessions != len(res.PerSession) {
		t.Fatalf("explain live=%d, eval sessions=%d", ex.LiveSessions, len(res.PerSession))
	}
	if ex.DistinctGroups != res.Solves {
		t.Fatalf("explain groups=%d, eval solves=%d", ex.DistinctGroups, res.Solves)
	}
	if math.IsNaN(res.Prob) {
		t.Fatal("NaN probability")
	}
}
