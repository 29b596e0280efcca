package ppd

import (
	"fmt"
	"math"
	"testing"

	"probpref/internal/rank"
	"probpref/internal/rim"
)

// TestNearModelsKeepTheirGroups: two Mallows sessions whose dispersions
// differ past the twelfth digit are two models, so neither shares the
// other's inference group: each session's probability is, bit for bit, what
// an engine over that session alone answers.
func TestNearModelsKeepTheirGroups(t *testing.T) {
	sigma := rank.Ranking{1, 2, 3, 0}
	models := []*rim.Mallows{rim.MustMallows(sigma, 0.3), rim.MustMallows(sigma, 0.3+1e-13)}
	q := MustParse(`P(_, _; c1; c2), C(c1, _, F, _, _, _), C(c2, _, M, _, _, _)`)
	answer := func(ms ...*rim.Mallows) *Response {
		t.Helper()
		db := figure1DB(t)
		var sessions SessionSlice
		for i, m := range ms {
			sessions = append(sessions, &Session{Key: []string{fmt.Sprint("v", i), "5/5"}, Model: m})
		}
		db.Prefs["P"].Sessions = sessions
		resp, err := evalBool(&Engine{DB: db}, q)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	both := answer(models...)
	for i, m := range models {
		got, want := both.PerSession[i].Prob, answer(m).PerSession[0].Prob
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("phi %v: per-session prob %v beside its neighbour, %v alone", m.Phi, got, want)
		}
	}
}
