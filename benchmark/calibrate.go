package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"

	"probpref/internal/pattern"
	"probpref/internal/pool"
	"probpref/internal/ppd"
	"probpref/internal/solver"
)

// This file builds queries.json, the frozen pool of hard queries the
// generator draws from. It runs only under -calibrate: the pool was
// calibrated once and is committed, so that a run's inputs do not depend on
// the program under test — a filter that asked the solver for its work at
// generation time would hand a faster solver a different (heavier) query
// mix than its parent got. Recalibrating changes every workload's inputs
// and invalidates earlier baselines; do it only when the dataset generator
// changes.

// poolQuery is one calibrated hard query.
type poolQuery struct {
	// Text is the query in the daemon's syntax.
	Text string `json:"q"`
	// Work is the mean number of DP state transitions one session's exact
	// solve takes (solver.Stats.Transitions over the probe sessions): a cold
	// evaluation costs about Work x groups.
	Work int `json:"work"`
	// Bound is the same for the top-k bound relaxation (bipartite solve of
	// pattern.BoundUnion with one edge), which a bound-1 top-k repeats for
	// every session even on a warm cache.
	Bound int `json:"bound"`
	// Prob is the mean exact probability over the probe sessions, Head over
	// the relation's first five sessions (serve_sampled's whole relation).
	Prob float64 `json:"prob"`
	Head float64 `json:"head"`
	// Sampled records that, at calibration, the adaptive planner's cost
	// estimate put every one of those five sessions beyond its default
	// budget, i.e. method adaptive without a deadline sampled them all.
	Sampled bool `json:"sampled,omitempty"`
}

const (
	// calibrationVoters is the relation the pool is measured on. Polls draws
	// its voters sequentially, so every workload's smaller relation is a
	// prefix of it.
	calibrationVoters = 200
	// calibrationProbes is how many sessions, spread over the relation,
	// each candidate is solved for.
	calibrationProbes = 24
	// maxPoolWork bounds Work; beyond it a single cold query costs seconds.
	maxPoolWork = 60000
	// maxUnionSize bounds the instantiated union. The two-label solver is
	// O(m^(2z+1)) in the union size z, and at z = 3 single sessions
	// (depending on their reference ranking) cost 50 ms and more: one such
	// query passed a 12-session probe and then took 9.8 s cold, which is
	// the client timeout.
	maxUnionSize = 2
)

// The candidate relation is C(candidate, party, sex, age, edu, reg); slot i
// of a generated atom is attribute i+1.
var slotValues = [5][]string{
	{"D", "R"},
	{"F", "M"},
	{"20", "30", "40", "50", "60", "70"},
	{"HS", "BA", "BS", "MS", "JD", "PhD"},
	{"NE", "S", "MW", "W", "SW", "NW"},
}

// candidateTexts enumerates the query space: hard CQs whose two compared
// items l and r are related through a shared variable in one attribute slot
// (the join); on each side the coarse slot (sex, or party when sex is the
// join) is a wildcard or a constant, and at most one of age/edu/reg
// carries a constant (two would leave almost no matching candidate among
// 20).
func candidateTexts() []string {
	seen := make(map[string]bool)
	var out []string
	for join := 0; join < 5; join++ {
		coarse := 1
		if join == 1 {
			coarse = 0
		}
		var sides [][]string
		for _, cv := range append([]string{"_"}, slotValues[coarse]...) {
			fines := [][2]string{{"", ""}}
			for fine := 2; fine < 5; fine++ {
				for _, fv := range slotValues[fine] {
					fines = append(fines, [2]string{fmt.Sprint(fine), fv})
				}
			}
			for _, f := range fines {
				slots := []string{"_", "_", "_", "_", "_"}
				slots[coarse] = cv
				if f[0] != "" {
					slots[f[0][0]-'0'] = f[1]
				}
				slots[join] = "j"
				sides = append(sides, slots)
			}
		}
		for _, l := range sides {
			for _, r := range sides {
				text := fmt.Sprintf("P(_, _; l; r), C(l, %s), C(r, %s)", strings.Join(l, ", "), strings.Join(r, ", "))
				if !seen[text] {
					seen[text] = true
					out = append(out, text)
				}
			}
		}
	}
	sort.Strings(out)
	return out
}

// measureQuery solves one candidate for the probe sessions; ok is false
// when it grounds to nothing, instantiates more than maxUnionSize patterns,
// exceeds maxPoolWork, or the engine refuses it.
func measureQuery(db *ppd.DB, text string) (q poolQuery, ok bool) {
	uq, err := ppd.ParseUnion(text)
	if err != nil {
		return q, false
	}
	g, err := ppd.NewGrounder(db, uq.Disjuncts[0])
	if err != nil {
		return q, false
	}
	sessions := g.Pref().Sessions
	lab := db.Labeling()
	q.Text = text
	// MaxStates is the refusal guard: a candidate whose layers pass it is
	// dropped here, long before a daemon could be asked to run it.
	opts := func(st *solver.Stats) solver.Options { return solver.Options{Stats: st, MaxStates: 1 << 15} }
	q.Sampled = true
	solve := func(i int) (p float64, work, bound int, ok bool) {
		s := sessions.At(i)
		gq, err := g.GroundSession(s)
		if err != nil || len(gq.Union) == 0 || len(gq.Union) > maxUnionSize {
			return 0, 0, 0, false
		}
		if i < 5 && ppd.EstimateCost(s.Model, lab, gq.Union, solver.Options{}.MaxInvolvedLimit()).States <= ppd.DefaultAdaptiveBudget {
			q.Sampled = false
		}
		var st, bst solver.Stats
		if p, err = solver.Auto(s.Model.Model(), lab, gq.Union, opts(&st)); err != nil {
			return 0, 0, 0, false
		}
		bu := pattern.BoundUnion(gq.Union, s.Model.Reference(), lab, 1)
		if _, err := solver.Bipartite(s.Model.Model(), lab, bu, opts(&bst)); err != nil {
			return 0, 0, 0, false
		}
		return p, st.Transitions, bst.Transitions, true
	}
	for i := 0; i < calibrationProbes; i++ {
		p, work, bound, ok := solve(i * sessions.Len() / calibrationProbes)
		if !ok {
			return q, false
		}
		q.Work += work
		q.Bound += bound
		q.Prob += p
		if q.Work > maxPoolWork*calibrationProbes {
			return q, false
		}
	}
	q.Work /= calibrationProbes
	q.Bound /= calibrationProbes
	q.Prob /= calibrationProbes
	for i := 0; i < 5; i++ {
		p, _, _, ok := solve(i)
		if !ok {
			return q, false
		}
		q.Head += p / 5
	}
	return q, true
}

// calibrate measures the whole query space and writes the pool to path.
func calibrate(path string) error {
	db, err := pollsDB(calibrationVoters)
	if err != nil {
		return err
	}
	texts := candidateTexts()
	kept := make([]*poolQuery, len(texts))
	err = pool.Run(len(texts), runtime.GOMAXPROCS(0), func(i int) error {
		if q, ok := measureQuery(db, texts[i]); ok {
			kept[i] = &q
		}
		return nil
	})
	if err != nil {
		return err
	}
	var out []poolQuery
	for _, q := range kept {
		if q != nil {
			out = append(out, *q)
		}
	}
	// One query per line keeps the committed file diffable.
	var b bytes.Buffer
	b.WriteString("[\n")
	for i, q := range out {
		q.Prob, q.Head = math.Round(q.Prob*1e4)/1e4, math.Round(q.Head*1e4)/1e4
		line, err := json.Marshal(q)
		if err != nil {
			return err
		}
		b.Write(line)
		if i < len(out)-1 {
			b.WriteByte(',')
		}
		b.WriteByte('\n')
	}
	b.WriteString("]\n")
	fmt.Fprintf(os.Stderr, "calibrated %d of %d candidate queries\n", len(out), len(texts))
	return os.WriteFile(path, b.Bytes(), 0o644)
}
