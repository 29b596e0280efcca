package solver

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"probpref/internal/label"
	"probpref/internal/pattern"
	"probpref/internal/rank"
	"probpref/internal/rim"
)

// This file keeps the two-label walk as it was before feed steps were
// bounded to their surviving insertion interval: every feed step tries all
// i+1 insertion points and drops the successors that satisfy a pattern, and
// the gap step unpacks, sorts and repacks each state. It is the reference
// TestTwoLabelWalkBitIdentical holds runTwoLabel to, bit for bit and
// transition for transition.

// refTwoLabel compiles u into a reference plan and walks the sessions of
// models through it.
func refTwoLabel(models []*rim.Model, lab *label.Labeling, u pattern.Union, opts Options) ([]float64, error) {
	out := make([]float64, len(models))
	if len(u) == 0 {
		return out, nil
	}
	ar := getArena()
	defer putArena(ar)
	var pl refTwoLabelPlan
	if err := compileRefTwoLabel(&pl, planAlloc{ar}, models[0].Sigma(), lab, u); err != nil {
		return nil, err
	}
	if err := runRefTwoLabel(ar, &pl, models, opts, out); err != nil {
		return nil, err
	}
	return out, nil
}

// refTwoLabelPlan is the reference walk's compiled union: per-step feed
// and retire lists.
type refTwoLabelPlan struct {
	m, n       int
	patL, patR []int   // per pattern, alpha/beta tracker slot indices
	slotIsMin  []bool  // per slot, role (min = alpha, max = beta)
	feeds      [][]int // per insertion step, slots fed by the inserted item
	retire     [][]int // per insertion step, slots reset to absent in its successors
}

func compileRefTwoLabel(pl *refTwoLabelPlan, a planAlloc, sigma rank.Ranking, lab *label.Labeling, u pattern.Union) error {
	if !u.AllTwoLabel() {
		return fmt.Errorf("%w: TwoLabel requires two-label patterns", ErrShape)
	}
	// Deduplicate trackers: one slot per distinct (label set, role). Linear
	// scan over the few slots — no Key-string allocation.
	slotLabels := a.sets(2 * len(u))[:0]
	slotIsMin := a.bools(2 * len(u))[:0]
	slot := func(ls label.Set, isMin bool) int {
		for s, sl := range slotLabels {
			if slotIsMin[s] == isMin && sl.Equal(ls) {
				return s
			}
		}
		slotLabels = append(slotLabels, ls)
		slotIsMin = append(slotIsMin, isMin)
		return len(slotLabels) - 1
	}
	patL := a.ints(len(u))
	patR := a.ints(len(u))
	for i, g := range u {
		e := g.Edges()[0]
		patL[i] = slot(g.Node(e[0]).Labels, true)
		patR[i] = slot(g.Node(e[1]).Labels, false)
	}
	n := len(slotLabels)
	m := len(sigma)

	// Per insertion step, which slots does the inserted item feed? One
	// labeling lookup per item, two passes over a single backing array.
	itemSets := a.sets(m)
	for i := range itemSets {
		itemSets[i] = lab.Of(sigma[i])
	}
	feeds := a.intSlices(m)
	nFeed := 0
	for i := 0; i < m; i++ {
		for s := 0; s < n; s++ {
			if slotLabels[s].SubsetOf(itemSets[i]) {
				nFeed++
			}
		}
	}
	feedBacking := a.ints(nFeed)[:0]
	for i := 0; i < m; i++ {
		lo := len(feedBacking)
		for s := 0; s < n; s++ {
			if slotLabels[s].SubsetOf(itemSets[i]) {
				feedBacking = append(feedBacking, s)
			}
		}
		feeds[i] = feedBacking[lo:len(feedBacking):len(feedBacking)]
	}

	// lastRead[s] is the last step whose item feeds the other slot of a
	// pattern using s — the last step that reads s — or -1.
	lastRead := a.ints(n)
	for s := range lastRead {
		lastRead[s] = -1
	}
	for i, feed := range feeds {
		for _, s := range feed {
			for pi := range patL {
				if patL[pi] == s {
					lastRead[patR[pi]] = i
				}
				if patR[pi] == s {
					lastRead[patL[pi]] = i
				}
			}
		}
	}
	retire := a.intSlices(m)
	retireBacking := a.ints(nFeed + n)[:0]
	for i, feed := range feeds {
		lo := len(retireBacking)
		for s := 0; s < n; s++ {
			if lastRead[s] == i {
				retireBacking = append(retireBacking, s)
			}
		}
		for _, s := range feed {
			if lastRead[s] < i {
				retireBacking = append(retireBacking, s)
			}
		}
		retire[i] = retireBacking[lo:len(retireBacking):len(retireBacking)]
	}

	pl.m, pl.n = m, n
	pl.patL, pl.patR = patL, patR
	pl.slotIsMin = slotIsMin
	pl.feeds = feeds
	pl.retire = retire
	return nil
}

// runRefTwoLabel walks a reference plan: every feed step tries each of the
// i+1 insertion points, on the packed key or the word vector, and drops the
// successors that satisfy a pattern.
func runRefTwoLabel(ar *arena, pl *refTwoLabelPlan, models []*rim.Model, opts Options, out []float64) error {
	ctx := opts.ctx()
	n, m, S := pl.n, pl.m, len(models)
	patL, patR, slotIsMin := pl.patL, pl.patR, pl.slotIsMin

	const absent = int16(-1)
	cur, nxt := &ar.layers[0], &ar.layers[1]
	init := ar.workspaces(1, n, n)[0].next
	for i := range init {
		init[i] = absent
	}
	cur.start(init, S)

	// The step loop rebinds the per-step variables the expand closure reads;
	// they share one struct so that the closure, built once, captures (and
	// moves to the heap) a single variable.
	var st struct {
		feed   []int
		retire []int
		steps  int
		w      []float64 // laneWeights on a feed step, lanePrefixes on a gap step
		// The packed feed step's masks: the sign bit of the lanes the step
		// feeds as a minimum and as a maximum, and every bit of the lanes
		// it retires.
		minHi, maxHi, retireAll uint64
	}
	packed := n <= packedWords
	var laneHi uint64 // the sign bit of every tracker's lane of a packed key
	for s := 0; s < n && packed; s++ {
		laneHi |= 0x8000 << (16 * s)
	}
	laneLo := laneHi >> 15
	wbuf := ar.floats(S * (m + 2))
	expand := func(ws *workspace, pk uint64, vals []int16, q []float64, em *emitter) {
		vals = ws.words(pk, vals)
		next := ws.next
		feed, retire, steps, w := st.feed, st.retire, st.steps, st.w
		if len(feed) == 0 {
			// The inserted item feeds no tracker, so the successor depends
			// on the insertion point j only through which positions shift —
			// constant between consecutive tracked positions. Merge each
			// such gap into one emission weighted by the gap's insertion
			// mass (same state set as per-slot expansion; relorder's gap
			// optimization applied to tracker vectors).
			gaps := make([]int16, 0, n)
			for _, v := range vals {
				if v == absent {
					continue
				}
				at := len(gaps)
				for at > 0 && gaps[at-1] >= v {
					if gaps[at-1] == v {
						at = -1
						break
					}
					at--
				}
				if at < 0 {
					continue // duplicate
				}
				gaps = append(gaps, 0)
				copy(gaps[at+1:], gaps[at:])
				gaps[at] = v
			}
			lo := 0
			for g := 0; g <= len(gaps); g++ {
				hi := steps - 1
				if g < len(gaps) {
					hi = int(gaps[g])
				}
				if lo > hi {
					continue
				}
				jj := int16(lo)
				for s, v := range vals {
					if v != absent && v >= jj {
						v++
					}
					next[s] = v
				}
				satisfied := false
				for pi := range patL {
					a, b := next[patL[pi]], next[patR[pi]]
					if a != absent && b != absent && a < b {
						satisfied = true
						break
					}
				}
				lo = hi + 1
				if satisfied {
					continue
				}
				dst := em.window(next)
				hiRow, loRow := w[(hi+1)*S:(hi+2)*S], w[int(jj)*S:(int(jj)+1)*S]
				for l, ql := range q {
					dst[l] += ql * (hiRow[l] - loRow[l])
				}
			}
			return
		}
		if packed {
			// The same step on the packed key, every lane at once. A
			// position is at most m < 0x8000 and absent is 0xFFFF, so a
			// lane's sign bit tells the two apart, and subtracting j from
			// the lane with its sign bit forced on borrows from no other
			// lane and leaves the sign bit on exactly where the lane is j
			// or more (absent included).
			k := packWords(vals)
			absentHi := k & laneHi
			minHi, maxHi, retireAll := st.minHi, st.maxHi, st.retireAll
			for j := 0; j < steps; j++ {
				jj := uint64(j) * laneLo
				geHi := ((k | laneHi) - jj) & laneHi
				// Shift the present positions at or after j.
				succ := k + (geHi&^absentHi)>>15
				// Feed: a minimum takes j where it was absent or at or after
				// j, a maximum where it was absent or before j.
				set := (geHi&minHi | (absentHi|^geHi)&maxHi) >> 15 * 0xFFFF
				succ = succ&^set | jj&set
				satisfied := false
				for pi := range patL {
					a, b := uint16(succ>>(16*patL[pi])), uint16(succ>>(16*patR[pi]))
					if b != 0xFFFF && a < b {
						satisfied = true
						break
					}
				}
				if satisfied {
					continue
				}
				unpackWords(succ|retireAll, next)
				dst := em.window(next)
				wrow := w[j*S : (j+1)*S]
				for l, ql := range q {
					dst[l] += ql * wrow[l]
				}
			}
			return
		}
		for j := 0; j < steps; j++ {
			jj := int16(j)
			// Copy the state, shifting positions at or after the insertion
			// point, in one pass.
			for s, v := range vals {
				if v != absent && v >= jj {
					v++
				}
				next[s] = v
			}
			// Apply the inserted item's label memberships.
			for _, s := range feed {
				if slotIsMin[s] {
					if next[s] == absent || jj < next[s] {
						next[s] = jj
					}
				} else {
					if next[s] == absent || jj > next[s] {
						next[s] = jj
					}
				}
			}
			// Prune states that satisfy some pattern: they match G forever.
			satisfied := false
			for pi := range patL {
				a, b := next[patL[pi]], next[patR[pi]]
				if a != absent && b != absent && a < b {
					satisfied = true
					break
				}
			}
			if satisfied {
				continue
			}
			for _, s := range retire {
				next[s] = absent
			}
			dst := em.window(next)
			wrow := w[j*S : (j+1)*S]
			for l, ql := range q {
				dst[l] += ql * wrow[l]
			}
		}
	}
	for i := 0; i < m; i++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		st.feed, st.steps = pl.feeds[i], i+1
		if !opts.NoTrackerDrop {
			st.retire = pl.retire[i]
		}
		if len(st.feed) == 0 {
			st.w = lanePrefixes(wbuf, models, i)
		} else {
			st.w = laneWeights(wbuf, models, i)
		}
		if packed {
			st.minHi, st.maxHi, st.retireAll = 0, 0, 0
			for _, s := range st.feed {
				if slotIsMin[s] {
					st.minHi |= 0x8000 << (16 * s)
				} else {
					st.maxHi |= 0x8000 << (16 * s)
				}
			}
			for _, s := range st.retire {
				st.retireAll |= 0xFFFF << (16 * s)
			}
		}
		if err := runStep(ctx, ar, cur, nxt, n, opts, nil, expand); err != nil {
			return err
		}
		if err := opts.layer(nxt.len()); err != nil {
			return err
		}
		cur, nxt = nxt, cur
	}
	clear(out)
	nStates := cur.len()
	for ki := 0; ki < nStates; ki++ {
		for l, q := range cur.valsAt(ki) {
			out[l] += q
		}
	}
	for l, violate := range out {
		p := 1 - violate
		if p < 0 {
			p = 0
		}
		out[l] = p
	}
	return nil
}

// twoLabelWorld draws a random two-label union over m <= 10 items with the
// shapes the interval bound must get right: label sets drawn from a small
// pool, so that patterns share slots; an item carrying both label sets of
// one pattern, which feeds its alpha and its beta slot at once; items with
// no label, which make gap steps; and up to six patterns, so that some
// unions track more than packedWords slots and walk the word loop.
func twoLabelWorld(rng *rand.Rand, m int) (rank.Ranking, *label.Labeling, pattern.Union) {
	sigma := make(rank.Ranking, m)
	for i, v := range rng.Perm(m) {
		sigma[i] = rank.Item(v)
	}
	const numLabels = 5
	lab := label.NewLabeling()
	for l := 0; l < numLabels; l++ {
		for n := 1 + rng.Intn(3); n > 0; n-- {
			lab.Add(sigma[rng.Intn(m)], label.Label(l))
		}
	}
	pool := make([]label.Set, 2+rng.Intn(4))
	for i := range pool {
		pool[i] = randSet(rng, numLabels)
	}
	u := make(pattern.Union, 1+rng.Intn(6))
	for i := range u {
		u[i] = pattern.TwoLabel(pool[rng.Intn(len(pool))], pool[rng.Intn(len(pool))])
	}
	if rng.Intn(2) == 0 {
		both := sigma[rng.Intn(m)]
		g := u[rng.Intn(len(u))]
		e := g.Edges()[0]
		for _, side := range e {
			for _, l := range g.Node(side).Labels {
				lab.Add(both, l)
			}
		}
	}
	return sigma, lab, u
}

// TestTwoLabelWalkBitIdentical holds the interval-bounded walk to the
// per-insertion-point reference above: every answer bit and every Stats
// counter, at one and three lanes through SolveSessions and through the
// single-shot TwoLabel, with and without tracker retirement, on the direct
// and on the chunked fold.
func TestTwoLabelWalkBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(54))
	wide := 0
	for trial := 0; trial < 600; trial++ {
		if trial == 300 {
			savedT, savedC := parallelThreshold, expandChunk
			parallelThreshold, expandChunk = 1, 3
			defer func() { parallelThreshold, expandChunk = savedT, savedC }()
		}
		m := 4 + rng.Intn(7)
		sigma, lab, u := twoLabelWorld(rng, m)
		p, err := CompilePlan(AlgoTwoLabel, sigma, lab, u, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if p.two.n > packedWords {
			wide++
		}
		for _, lanes := range []int{1, 3} {
			models := randSessionModels(rng, sigma, lanes)
			for _, noDrop := range []bool{false, true} {
				var gotStats, wantStats Stats
				got, err := SolveSessions(p, models, Options{NoTrackerDrop: noDrop, Stats: &gotStats})
				if err != nil {
					t.Fatal(err)
				}
				want, err := refTwoLabel(models, lab, u, Options{NoTrackerDrop: noDrop, Stats: &wantStats})
				if err != nil {
					t.Fatal(err)
				}
				if gotStats != wantStats {
					t.Fatalf("trial %d (m=%d, %d lanes, NoTrackerDrop=%v, union %v): stats %+v, reference %+v",
						trial, m, lanes, noDrop, u, gotStats, wantStats)
				}
				for l := range got {
					if math.Float64bits(got[l]) != math.Float64bits(want[l]) {
						t.Fatalf("trial %d (m=%d, %d lanes, NoTrackerDrop=%v, union %v): lane %d = %v, reference %v",
							trial, m, lanes, noDrop, u, l, got[l], want[l])
					}
				}
				if lanes == 1 {
					one, err := TwoLabel(models[0], lab, u, Options{NoTrackerDrop: noDrop})
					if err != nil {
						t.Fatal(err)
					}
					if math.Float64bits(one) != math.Float64bits(want[0]) {
						t.Fatalf("trial %d: TwoLabel = %v, reference %v", trial, one, want[0])
					}
				}
			}
		}
	}
	if wide == 0 {
		t.Fatal("no union tracked more than packedWords slots: the word loop went untested")
	}
}
