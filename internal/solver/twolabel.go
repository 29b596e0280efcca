package solver

import (
	"fmt"

	"probpref/internal/label"
	"probpref/internal/pattern"
	"probpref/internal/rank"
	"probpref/internal/rim"
)

// TwoLabel implements Algorithm 3 of the paper: exact inference for a union
// of two-label patterns G = U_i {l_i > r_i}. It computes the complementary
// event by dynamic programming over RIM insertions: states track the minimum
// position of each L-type label set (alpha) and the maximum position of each
// R-type label set (beta); a state violates pattern i while alpha(l_i) >=
// beta(r_i), and only violating states are kept. The answer is one minus the
// surviving probability mass. Complexity O(m^(2z+1)), the 2z counting the
// live trackers of the widest layer.
//
// States are vectors of one position word per tracker slot (absent = -1),
// held in the packed layer representation of state.go and expanded through
// the (for large layers, parallel) driver of layer.go. A
// tracker's position is only ever read when an item of the other side of one
// of its patterns is inserted, so a tracker is retired — reset to absent
// before the successor is emitted, which merges the states that differed
// only in it — from the last step that feeds such a partner on (see retire
// in twoLabelPlan; Options.NoTrackerDrop keeps every tracker to the end).
// The solver is split into a session-independent compile half (tracker
// slots, pattern slot pairs, per-step feed and retire lists) and an executor
// that only reads the sessions' Pi rows — one lane here; see plan.go.
func TwoLabel(model *rim.Model, lab *label.Labeling, u pattern.Union, opts Options) (float64, error) {
	if len(u) == 0 {
		return 0, nil
	}
	ar := getArena()
	defer putArena(ar)
	var pl twoLabelPlan
	if err := compileTwoLabel(&pl, planAlloc{ar}, model.Sigma(), lab, u); err != nil {
		return 0, err
	}
	models, out := [1]*rim.Model{model}, [1]float64{}
	if err := runTwoLabel(ar, &pl, models[:], opts, out[:]); err != nil {
		return 0, err
	}
	return out[0], nil
}

// twoLabelPlan is the session-independent compilation of a two-label union:
// everything the executor needs except the Pi rows.
type twoLabelPlan struct {
	m, n       int
	patL, patR []int   // per pattern, alpha/beta tracker slot indices
	slotIsMin  []bool  // per slot, role (min = alpha, max = beta)
	feeds      [][]int // per insertion step, slots fed by the inserted item
	// retire lists, per insertion step, the slots to reset to absent before
	// the step's successors are emitted: no later item feeds the other slot
	// of any pattern using them, so nothing will read their position again.
	// A slot appears at the last step that feeds one of its partners (every
	// step it is fed, if none ever does) and at each later step that feeds
	// it — there it is set for that step's check only; in between it stays
	// absent. Marginalising a position nothing reads is exact.
	retire [][]int
	// lastRead is, per slot, the last step whose item feeds the other slot
	// of a pattern using it (-1: none does): the slot holds a position in
	// the emitted layers of the steps from its first feed up to, but not
	// including, that one. Plan.Cost reads the live trackers of a layer
	// off it.
	lastRead []int
}

func compileTwoLabel(pl *twoLabelPlan, a planAlloc, sigma rank.Ranking, lab *label.Labeling, u pattern.Union) error {
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
	pl.lastRead = lastRead
	return nil
}

// runTwoLabel executes a compiled two-label plan against the sessions of
// models in one layer walk, a mass value per lane per state; out[l] is
// session l's answer. The walk is structural — which successors are emitted
// depends only on the plan, never on the Pi values — so the lanes share
// every layer. Per-step weights are gathered into a j-major matrix, and
// each lane's arithmetic is the same whatever S is.
//
// A feed step over a state of at most packedWords trackers runs on the
// state's packed key, one 16-bit lane per tracker: per insertion point j,
// one masked subtract finds the lanes at or after j, one masked add shifts
// the present ones, one masked select feeds the inserted item's trackers,
// the satisfaction test reads two lanes per pattern, and one OR retires the
// step's dead trackers. It emits the successors of the word loop wider
// states keep, in the same order and with the same weights, so the answer
// keeps its bits.
func runTwoLabel(ar *arena, pl *twoLabelPlan, models []*rim.Model, opts Options, out []float64) error {
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
	expand := func(ws *workspace, vals []int16, q []float64, em *emitter) {
		next := ws.next
		feed, retire, steps, w := st.feed, st.retire, st.steps, st.w
		if len(feed) == 0 {
			// The inserted item feeds no tracker, so the successor depends
			// on the insertion point j only through which positions shift —
			// constant between consecutive tracked positions. Merge each
			// such gap into one emission weighted by the gap's insertion
			// mass (same state set as per-slot expansion; relorder's gap
			// optimization applied to tracker vectors).
			if cap(ws.gaps) < n {
				ws.gaps = make([]int16, n)
			}
			gaps := ws.gaps[:0]
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
				var dst []float64
				if packed {
					dst = em.window64(packWords(next))
				} else {
					dst = em.window(next)
				}
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
				dst := em.window64(succ | retireAll)
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
			var dst []float64
			if packed {
				dst = em.window64(packWords(next))
			} else {
				dst = em.window(next)
			}
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
