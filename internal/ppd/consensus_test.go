package ppd

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"probpref/internal/consensus"
	"probpref/internal/rank"
	"probpref/internal/rim"
)

const consensusQ = `P(_, _; c1; c2), C(c1, _, F, _, _, _), C(c2, _, M, _, _, _)`

func consensusReq(target consensus.Target, k int) *Request {
	return &Request{Kind: KindConsensus, Query: consensusQ, ConsensusTarget: target, K: k}
}

// doConsensus answers one consensus request and unwraps its section.
func doConsensus(t *testing.T, eng *Engine, req *Request) *ConsensusResult {
	t.Helper()
	resp, err := eng.Do(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Kind != KindConsensus || resp.Consensus == nil {
		t.Fatalf("response carries no consensus section: %+v", resp)
	}
	return resp.Consensus
}

// TestConsensusExactSampledMetamorphic is the exact-vs-sampled suite: for
// every target, a seeded sampling evaluation must agree with the exact one
// — the sampled pairwise marginals and membership probabilities within
// their own reported 95% bands (with generous slack for the finite-draw
// tail), and the discrete answers (rankings) identical at this sample size.
func TestConsensusExactSampledMetamorphic(t *testing.T) {
	db := figure1DB(t)
	exactEng := &Engine{DB: db, Method: MethodAuto}
	sampledEng := Tune(&Engine{DB: db, Method: MethodRejection, Rng: rand.New(rand.NewSource(5))}, Tuning{Draws: 8000})

	t.Run("median", func(t *testing.T) {
		exact := doConsensus(t, exactEng, consensusReq(consensus.TargetMedian, 0))
		sampled := doConsensus(t, sampledEng, consensusReq(consensus.TargetMedian, 0))
		if exact.Sampled || !sampled.Sampled {
			t.Fatalf("routing wrong: exact.Sampled=%v sampled.Sampled=%v", exact.Sampled, sampled.Sampled)
		}
		if exact.LiveSessions != sampled.LiveSessions {
			t.Fatalf("live sessions differ: %d vs %d", exact.LiveSessions, sampled.LiveSessions)
		}
		m := db.M()
		for a := 0; a < m; a++ {
			for b := 0; b < m; b++ {
				if a == b {
					continue
				}
				diff := sampled.Pairwise[a][b] - exact.Pairwise[a][b]
				if diff < 0 {
					diff = -diff
				}
				// 2x the reported 95% half-width: a deterministic bound the
				// seeded run satisfies with margin.
				if tol := 2*sampled.PairHalf[a][b] + 1e-9; diff > tol {
					t.Errorf("pairwise[%d][%d]: sampled %v, exact %v, |diff| %v > %v",
						a, b, sampled.Pairwise[a][b], exact.Pairwise[a][b], diff, tol)
				}
			}
		}
		if exact.Ranking.Key() != sampled.Ranking.Key() {
			t.Errorf("median rankings diverge at 8000 draws/session: exact %v, sampled %v", exact.Ranking, sampled.Ranking)
		}
	})

	t.Run("map", func(t *testing.T) {
		exact := doConsensus(t, exactEng, consensusReq(consensus.TargetMAP, 0))
		sampled := doConsensus(t, sampledEng, consensusReq(consensus.TargetMAP, 0))
		if exact.Ranking.Key() != sampled.Ranking.Key() {
			t.Errorf("MAP rankings diverge: exact %v, sampled %v", exact.Ranking, sampled.Ranking)
		}
		diff := sampled.Prob - exact.Prob
		if diff < 0 {
			diff = -diff
		}
		if diff > 0.05 {
			t.Errorf("MAP prob: sampled %v, exact %v", sampled.Prob, exact.Prob)
		}
	})

	t.Run("topk", func(t *testing.T) {
		exact := doConsensus(t, exactEng, consensusReq(consensus.TargetTopK, 2))
		sampled := doConsensus(t, sampledEng, consensusReq(consensus.TargetTopK, 2))
		if len(exact.Items) != 2 || len(sampled.Items) != 2 {
			t.Fatalf("want 2 items, got %d exact / %d sampled", len(exact.Items), len(sampled.Items))
		}
		for _, it := range exact.Items {
			if it.Half != 0 {
				t.Errorf("exact item carries a half-width: %+v", it)
			}
		}
		// Compare per item id, not per position (order may swap on ties).
		exactProb := make(map[rank.Item]float64)
		for _, it := range exact.Items {
			exactProb[it.Item] = it.Prob
		}
		for _, it := range sampled.Items {
			want, ok := exactProb[it.Item]
			if !ok {
				t.Errorf("sampled top-k picked item %d outside the exact top-k", it.Item)
				continue
			}
			diff := it.Prob - want
			if diff < 0 {
				diff = -diff
			}
			if tol := 2*it.Half + 1e-9; diff > tol {
				t.Errorf("item %d: sampled %v ± %v, exact %v", it.Item, it.Prob, it.Half, want)
			}
		}
	})
}

// TestConsensusSampledDeterminism: a seeded sampled evaluation is a pure
// function of (seed, session keys) — identical rows and answers across
// runs, and identical whether the seed comes from the engine RNG or the
// per-request Seed override.
func TestConsensusSampledDeterminism(t *testing.T) {
	db := figure1DB(t)
	run := func() *ConsensusResult {
		eng := &Engine{DB: db, Method: MethodRejection, Rng: rand.New(rand.NewSource(7))}
		return doConsensus(t, eng, consensusReq(consensus.TargetMedian, 0))
	}
	a, b := run(), run()
	if len(a.Rows) != len(b.Rows) {
		t.Fatalf("row counts differ: %d vs %d", len(a.Rows), len(b.Rows))
	}
	for i := range a.Rows {
		ra, rb := a.Rows[i], b.Rows[i]
		if ra.Accepts != rb.Accepts || ra.Draws != rb.Draws {
			t.Fatalf("row %d counters differ: %+v vs %+v", i, ra, rb)
		}
		for j := range ra.PairN {
			if ra.PairN[j] != rb.PairN[j] {
				t.Fatalf("row %d pair counter %d differs", i, j)
			}
		}
	}
	if a.ExpectedTau != b.ExpectedTau || a.Ranking.Key() != b.Ranking.Key() {
		t.Fatalf("sampled answers differ: %v/%v vs %v/%v", a.Ranking, a.ExpectedTau, b.Ranking, b.ExpectedTau)
	}

	// The per-request Seed override must reproduce the engine-level seed.
	eng := &Engine{DB: db, Method: MethodRejection}
	req := consensusReq(consensus.TargetMedian, 0)
	req.Seed = 7
	c := doConsensus(t, eng, req)
	if c.ExpectedTau != a.ExpectedTau || c.Ranking.Key() != a.Ranking.Key() {
		t.Fatalf("request-seeded answer differs from engine-seeded: %v/%v vs %v/%v", c.Ranking, c.ExpectedTau, a.Ranking, a.ExpectedTau)
	}
}

// TestConsensusAdaptiveRouting: MethodAdaptive compares the predicted
// enumeration cost against its budget — a starved budget (a 1 ns deadline)
// routes to sampling, a generous one (an hour) to exact enumeration.
func TestConsensusAdaptiveRouting(t *testing.T) {
	db := figure1DB(t)
	eng := &Engine{DB: db, Method: MethodAdaptive, Rng: rand.New(rand.NewSource(1))}
	starved := consensusReq(consensus.TargetMedian, 0)
	starved.Deadline = time.Nanosecond
	if res := doConsensus(t, eng, starved); !res.Sampled {
		t.Error("starved adaptive budget should route to sampling")
	}
	generous := consensusReq(consensus.TargetMedian, 0)
	generous.Deadline = time.Hour
	if res := doConsensus(t, eng, generous); res.Sampled {
		t.Error("generous adaptive budget should route to exact")
	}
}

// TestConsensusAdaptiveDefaultBudget: with no deadline and no explicit
// budget the planner buys enumeration while it is priced no dearer than the
// sampled rows — 720 rankings of 6 items against 2 000 draws, not 5 040 of 7
// (measured: 0.26 against 0.41 ms a session at 6 items, 2.6 against 0.47 at
// 7) — and fewer draws buy less.
func TestConsensusAdaptiveDefaultBudget(t *testing.T) {
	req := &Request{Kind: KindConsensus, Query: `P(_; a; b), C(a, X), C(b, X)`, ConsensusTarget: consensus.TargetMedian}
	for _, c := range []struct {
		m, rejectionN int
		sampled       bool
	}{
		{m: 6, sampled: false},
		{m: 7, sampled: true},
		{m: 6, rejectionN: 500, sampled: true},
	} {
		eng := Tune(&Engine{DB: bigDB(t, c.m), Method: MethodAdaptive, Rng: rand.New(rand.NewSource(1))}, Tuning{Draws: c.rejectionN})
		if res := doConsensus(t, eng, req); res.Sampled != c.sampled {
			t.Errorf("m = %d, %d draws: sampled %v, want %v", c.m, c.rejectionN, res.Sampled, c.sampled)
		}
	}
}

// bigDB builds a single-session database over the given number of items.
func bigDB(t *testing.T, m int) *DB {
	t.Helper()
	rows := make([][]string, m)
	for i := range rows {
		rows[i] = []string{fmt.Sprintf("i%02d", i), "X"}
	}
	items, err := NewRelation("C", []string{"item", "tag"}, rows)
	if err != nil {
		t.Fatal(err)
	}
	db, err := NewDB(items)
	if err != nil {
		t.Fatal(err)
	}
	pref := &PrefRelation{
		Name:         "P",
		SessionAttrs: []string{"user"},
		Sessions: SessionSlice{
			{Key: []string{"u1"}, Model: rim.MustMallows(rank.Identity(m), 0.5)},
		},
	}
	if err := db.AddPrefRelation(pref); err != nil {
		t.Fatal(err)
	}
	return db
}

// TestConsensusExactCap: beyond MaxExactM items an explicitly exact method
// errors with the enumerating message, MethodAuto degrades to sampling, and
// the sampled median runs the deterministic local search.
func TestConsensusExactCap(t *testing.T) {
	db := bigDB(t, consensus.MaxExactM+1)
	req := &Request{Kind: KindConsensus, Query: `P(_; a; b), C(a, X), C(b, X)`, ConsensusTarget: consensus.TargetMedian}

	exact := &Engine{DB: db, Method: MethodGeneral}
	_, err := exact.Do(context.Background(), req)
	if err == nil || !strings.Contains(err.Error(), "exceeds the exact limit") {
		t.Fatalf("explicit exact beyond the cap: got %v", err)
	}

	auto := &Engine{DB: db, Method: MethodAuto, Rng: rand.New(rand.NewSource(2))}
	res := doConsensus(t, auto, req)
	if !res.Sampled {
		t.Error("MethodAuto beyond the cap should sample")
	}
	if len(res.Ranking) != consensus.MaxExactM+1 {
		t.Errorf("median ranking has %d items, want %d", len(res.Ranking), consensus.MaxExactM+1)
	}
	again := doConsensus(t, &Engine{DB: db, Method: MethodAuto, Rng: rand.New(rand.NewSource(2))}, req)
	if res.Ranking.Key() != again.Ranking.Key() || res.ExpectedTau != again.ExpectedTau {
		t.Error("sampled local-search median not deterministic under a fixed seed")
	}
}

// TestConsensusRowsReturnCancelCause: both row builders stop on a done
// context with its cause, like every other evaluation and sampling loop —
// not with the bare context.Canceled that hides why a request was dropped.
func TestConsensusRowsReturnCancelCause(t *testing.T) {
	db := figure1DB(t)
	eng := &Engine{DB: db, Rng: rand.New(rand.NewSource(1))}
	cr, err := consensusReq(consensus.TargetMedian, 0).Compile()
	if err != nil {
		t.Fatal(err)
	}
	gr, err := db.Ground(context.Background(), cr.Union)
	if err != nil {
		t.Fatal(err)
	}
	cause := errors.New("client went away")
	ctx, cancel := context.WithCancelCause(context.Background())
	cancel(cause)
	for name, rows := range map[string]func(context.Context, *Grounded, *CompiledRequest) ([]consensus.Row, error){
		"exact": eng.consensusExactRows,
		"sampled": func(ctx context.Context, gr *Grounded, cr *CompiledRequest) ([]consensus.Row, error) {
			return eng.consensusSampledRows(ctx, 1, gr, cr)
		},
	} {
		if _, err := rows(ctx, gr, cr); err != cause {
			t.Errorf("%s rows on a cancelled context: error %v, want the cause %v", name, err, cause)
		}
	}
}

// TestConsensusRowsFoldBitIdentically: re-solving the response's own rows
// through consensus.Solve must reproduce the folded answer bit for bit —
// the invariant the cluster coordinator's merge is built on.
func TestConsensusRowsFoldBitIdentically(t *testing.T) {
	db := figure1DB(t)
	for _, method := range []Method{MethodAuto, MethodRejection} {
		for _, tgt := range []consensus.Target{consensus.TargetMAP, consensus.TargetMedian, consensus.TargetTopK} {
			eng := &Engine{DB: db, Method: method, Rng: rand.New(rand.NewSource(3))}
			k := 0
			if tgt == consensus.TargetTopK {
				k = 2
			}
			res := doConsensus(t, eng, consensusReq(tgt, k))
			refold, err := consensus.Solve(res.Rows, consensus.Params{Target: tgt, M: db.M(), K: k})
			if err != nil {
				t.Fatalf("%v/%v: %v", method, tgt, err)
			}
			if refold.ExpectedTau != res.ExpectedTau || refold.Prob != res.Prob ||
				refold.Ranking.Key() != res.Ranking.Key() ||
				refold.Samples != res.Samples || refold.Accepts != res.Accepts {
				t.Fatalf("%v/%v: refold diverged: %+v vs %+v", method, tgt, refold, res.Result)
			}
			for i := range refold.Items {
				if refold.Items[i] != res.Items[i] {
					t.Fatalf("%v/%v: item %d diverged", method, tgt, i)
				}
			}
			for a := range refold.Pairwise {
				for b := range refold.Pairwise[a] {
					if refold.Pairwise[a][b] != res.Pairwise[a][b] {
						t.Fatalf("%v/%v: pairwise[%d][%d] diverged", method, tgt, a, b)
					}
				}
			}
		}
	}
}

// TestEstimateConsensusCost: the planner estimate scales with sessions and
// factorially with items, and guards the factorial overflow.
func TestEstimateConsensusCost(t *testing.T) {
	small := EstimateConsensusCost(4, 3)
	if small.States != 3*24*4 {
		t.Errorf("EstimateConsensusCost(4, 3).States = %v", small.States)
	}
	if big := EstimateConsensusCost(21, 1); !isInf(big.States) {
		t.Errorf("overflow guard: %+v", big)
	}
}

func isInf(f float64) bool { return f > 1e308 }
