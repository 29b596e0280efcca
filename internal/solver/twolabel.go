package solver

import (
	"fmt"
	"math/bits"

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
// the (for large layers, parallel) driver of layer.go. A tracker's position
// is only ever read when an item of the other side of one of its patterns
// is inserted, so a tracker is retired — reset to absent before the
// successor is emitted, which merges the states that differed only in it —
// from the last step that feeds such a partner on (see the retire set of
// twoLabelPlan; Options.NoTrackerDrop keeps every tracker to the end).
//
// Every state of a layer violates every pattern, and an insertion keeps the
// relative order of the items already placed, so only the inserted item can
// make a successor satisfy a pattern — as its new minimum of l_i, placed at
// or before the position b of r_i's maximum, or as its new maximum of r_i,
// placed after the position a of l_i's minimum. A feed step therefore
// expands a state into the one interval of insertion points that keeps it
// violated, [1 + max b, min a] over the patterns the item feeds, and emits
// exactly the successors a test of every insertion point would keep, in the
// same order; a step that feeds no tracker satisfies nothing and merges the
// insertion points of each gap between tracked positions into one
// successor. See "The packed TwoLabel step" in docs/ARCHITECTURE.md.
//
// The solver is split into a session-independent compile half (tracker
// slots and the per-step slot sets) and an executor that only reads the
// sessions' Pi rows — one lane here; see plan.go.
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

// absent is the position word of a tracker that holds no position.
const absent = int16(-1)

// The slot sets a two-label plan keeps per insertion step, in this order.
// A set is a bitset over tracker slots, one bit per slot, 64 to a word.
const (
	setFeedMin = iota // slots the step's item feeds as a minimum (alpha)
	setFeedMax        // slots it feeds as a maximum (beta)
	// setRetire holds the slots to reset to absent in the step's successors:
	// no later item feeds the other slot of any pattern using them, so
	// nothing will read their position again. A slot is in it at the last
	// step that feeds one of its partners (every step it is fed, if none
	// ever does) and at each later step that feeds it — there it is set for
	// that step's interval only; in between it stays absent. Marginalising a
	// position nothing reads is exact.
	setRetire
	// setLo holds the beta slot of every pattern whose alpha slot the step
	// feeds: a present position b there keeps only the insertion points
	// after b. setHi holds the alpha slot of every pattern whose beta slot
	// the step feeds: a present position a keeps only the points up to a.
	setLo
	setHi
	stepSets
)

// twoLabelPlan is the session-independent compilation of a two-label union:
// everything the executor needs except the Pi rows. Its two slices share
// one backing array.
type twoLabelPlan struct {
	m, n int
	// words is the length of a slot set in uint64 words: ceil(n/64).
	words int
	// pats lists the patterns' tracker slots: pattern p's alpha slot at 2p,
	// its beta slot at 2p+1. Only Plan.Cost reads it.
	pats []uint64
	// steps holds, per insertion step i, the stepSets slot sets of step i
	// (see set).
	steps []uint64
}

// set returns the slot set which (setFeedMin, ..., setHi) of step i.
func (pl *twoLabelPlan) set(i, which int) []uint64 {
	off := (i*stepSets + which) * pl.words
	return pl.steps[off : off+pl.words : off+pl.words]
}

// compileSlots is how many tracker slots compileTwoLabel's scratch holds on
// the stack; a union of more than compileSlots/2 patterns spills it to the
// heap.
const compileSlots = 32

func compileTwoLabel(pl *twoLabelPlan, a planAlloc, sigma rank.Ranking, lab *label.Labeling, u pattern.Union) error {
	if !u.AllTwoLabel() {
		return fmt.Errorf("%w: TwoLabel requires two-label patterns", ErrShape)
	}
	// Deduplicate trackers: one slot per distinct (label set, role), by a
	// linear scan over the few slots. pats[2p] and pats[2p+1] are pattern
	// p's alpha and beta slots. All of this is scratch on the stack.
	var (
		labelsBuf [compileSlots]label.Set
		isMinBuf  [compileSlots]bool
		patsBuf   [compileSlots]int
	)
	slotLabels, slotIsMin, pats := labelsBuf[:0], isMinBuf[:0], patsBuf[:0]
	for _, g := range u {
		e := g.Edges()[0]
		for side, isMin := range [2]bool{true, false} {
			ls := g.Node(e[side]).Labels
			s := 0
			for s < len(slotLabels) && (slotIsMin[s] != isMin || !slotLabels[s].Equal(ls)) {
				s++
			}
			if s == len(slotLabels) {
				slotLabels = append(slotLabels, ls)
				slotIsMin = append(slotIsMin, isMin)
			}
			pats = append(pats, s)
		}
	}
	n, m := len(slotLabels), len(sigma)
	words := (n + 63) / 64
	backing := a.u64s(len(pats) + m*stepSets*words)
	pl.m, pl.n, pl.words = m, n, words
	pl.pats, pl.steps = backing[:len(pats):len(pats)], backing[len(pats):]
	for p, s := range pats {
		pl.pats[p] = uint64(s)
	}

	// The feed sets, one labeling lookup per item; lastFeed[s] is the last
	// step that feeds s, or -1.
	var lastFeedBuf, lastReadBuf [compileSlots]int
	lastFeed, lastRead := lastFeedBuf[:0], lastReadBuf[:0]
	for s := 0; s < n; s++ {
		lastFeed, lastRead = append(lastFeed, -1), append(lastRead, -1)
	}
	for i := 0; i < m; i++ {
		item := lab.Of(sigma[i])
		fmin, fmax := pl.set(i, setFeedMin), pl.set(i, setFeedMax)
		for s, ls := range slotLabels {
			if !ls.SubsetOf(item) {
				continue
			}
			if slotIsMin[s] {
				fmin[s/64] |= 1 << uint(s%64)
			} else {
				fmax[s/64] |= 1 << uint(s%64)
			}
			lastFeed[s] = i
		}
	}
	// lastRead[s] is the last step whose item feeds the other slot of a
	// pattern using s — the last step that reads s — or -1.
	for p := 0; p < len(pats); p += 2 {
		l, r := pats[p], pats[p+1]
		lastRead[l] = max(lastRead[l], lastFeed[r])
		lastRead[r] = max(lastRead[r], lastFeed[l])
	}
	for i := 0; i < m; i++ {
		fmin, fmax := pl.set(i, setFeedMin), pl.set(i, setFeedMax)
		retire, lo, hi := pl.set(i, setRetire), pl.set(i, setLo), pl.set(i, setHi)
		for s := 0; s < n; s++ {
			fed := (fmin[s/64]|fmax[s/64])>>uint(s%64)&1 != 0
			if lastRead[s] == i || fed && lastRead[s] < i {
				retire[s/64] |= 1 << uint(s%64)
			}
		}
		for p := 0; p < len(pats); p += 2 {
			l, r := pats[p], pats[p+1]
			if fmin[l/64]>>uint(l%64)&1 != 0 {
				lo[r/64] |= 1 << uint(r%64)
			}
			if fmax[r/64]>>uint(r%64)&1 != 0 {
				hi[l/64] |= 1 << uint(l%64)
			}
		}
	}
	return nil
}

// twoLabelWalk is runTwoLabel's per-step state, which its expand method
// reads. It lives in the pooled arena, and so does the method value runStep
// is handed (arena.twoExpand), so a walk allocates neither.
type twoLabelWalk struct {
	n    int       // tracker slots
	step int       // the step's last insertion point (the item has step+1)
	gap  bool      // the step's item feeds no tracker
	w    []float64 // laneWeights on a feed step, lanePrefixes on a gap step
	// The step's slot sets, read by the word loop of wide states.
	feedMin, feedMax, retire, lo, hi []uint64
	// The same sets as lane masks of a packed key, one 16-bit lane per
	// tracker: the sign bit of each lane fed as a minimum, fed as a maximum,
	// bounding the interval from below and from above; and every bit of each
	// retired lane. laneHi is the sign bit of every tracker's lane.
	minHi, maxHi, loHi, hiHi, retireAll, laneHi uint64
}

// laneSpread moves bit s of a set of at most packedWords slots to bit 16s,
// the low bit of slot s's lane in a packed key.
func laneSpread(b uint64) uint64 {
	return b&1 | b&2<<15 | b&4<<30 | b&8<<45
}

// runTwoLabel executes a compiled two-label plan against the sessions of
// models in one layer walk, a mass value per lane per state; out[l] is
// session l's answer. The walk is structural — which successors are emitted
// depends only on the plan, never on the Pi values — so the lanes share
// every layer. Per-step weights are gathered into a j-major matrix, and
// each lane's arithmetic is the same whatever S is.
func runTwoLabel(ar *arena, pl *twoLabelPlan, models []*rim.Model, opts Options, out []float64) error {
	ctx := opts.ctx()
	n, m, S := pl.n, pl.m, len(models)

	cur, nxt := &ar.layers[0], &ar.layers[1]
	init := ar.workspaces(1, n, n)[0].next
	for i := range init {
		init[i] = absent
	}
	cur.start(init, S)

	tw := &ar.two
	defer func() { *tw = twoLabelWalk{} }()
	*tw = twoLabelWalk{n: n}
	if n <= packedWords {
		tw.laneHi = laneSpread(1<<n-1) << 15
	}
	if ar.twoExpand == nil {
		ar.twoExpand = tw.expand
	}
	wbuf := ar.floats(S * (m + 2))
	for i := 0; i < m; i++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		tw.step = i
		tw.feedMin, tw.feedMax = pl.set(i, setFeedMin), pl.set(i, setFeedMax)
		tw.lo, tw.hi, tw.retire = pl.set(i, setLo), pl.set(i, setHi), nil
		if !opts.NoTrackerDrop {
			tw.retire = pl.set(i, setRetire)
		}
		tw.gap = true
		for wi := range tw.feedMin {
			if tw.feedMin[wi]|tw.feedMax[wi] != 0 {
				tw.gap = false
			}
		}
		if tw.gap {
			tw.w = lanePrefixes(wbuf, models, i)
		} else {
			tw.w = laneWeights(wbuf, models, i)
		}
		if n <= packedWords {
			tw.minHi, tw.maxHi = laneSpread(tw.feedMin[0])<<15, laneSpread(tw.feedMax[0])<<15
			tw.loHi, tw.hiHi = laneSpread(tw.lo[0])<<15, laneSpread(tw.hi[0])<<15
			tw.retireAll = 0
			if tw.retire != nil {
				tw.retireAll = laneSpread(tw.retire[0]) * 0xFFFF
			}
		}
		if err := runStep(ctx, ar, cur, nxt, n, opts, nil, ar.twoExpand); err != nil {
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

// expand emits the successors of one state of the step (an expandFn). A
// state of at most packedWords trackers is stepped on its packed key, every
// lane at once. A position is at most m < 0x8000 and absent is 0xFFFF, so a
// lane's sign bit tells the two apart, and subtracting j from the lane with
// its sign bit forced on borrows from no other lane and leaves the sign bit
// on exactly where the lane is j or more (absent included): one masked add
// then shifts the present positions at or after j. The successor's window
// is looked up in the emitter's layer directly, and counted, as
// emitter.window does for a word vector.
//
// A gap step — the item feeds no tracker — satisfies nothing, and its
// successor depends on the insertion point j only through which positions
// shift, which is constant between consecutive tracked positions. Each such
// gap [lo, hi] is one emission weighted by its insertion mass, found by a
// scan for the first tracked position at or after lo and shifted at j = lo.
//
// A feed step expands the state into the interval of insertion points that
// keeps it violated. An absent lane bounds nothing: its lower-bound
// candidate wraps to 0 in 16 bits, its upper-bound candidate exceeds every
// insertion point. Per point, one masked select feeds the inserted item's
// trackers and one OR retires the step's dead ones.
func (tw *twoLabelWalk) expand(ws *workspace, k uint64, vals []int16, q []float64, em *emitter) {
	if vals != nil {
		if tw.gap {
			tw.wideGap(ws.next, vals, q, em)
		} else {
			tw.wideFeed(ws.next, vals, q, em)
		}
		return
	}
	laneHi := tw.laneHi
	laneLo := laneHi >> 15
	absentHi := k & laneHi
	S := len(q)
	dl := em.dst
	if tw.gap {
		for lo := 0; ; {
			hi := 0xFFFF // absent; no position reaches it
			for s := 0; s < tw.n; s++ {
				if v := int(uint16(k >> uint(16*s))); v >= lo && v < hi {
					hi = v
				}
			}
			last := hi == 0xFFFF
			if last {
				hi = tw.step
			}
			jj := uint64(lo) * laneLo
			geHi := ((k | laneHi) - jj) & laneHi
			dst := dl.valsAt(dl.slot64(k + (geHi&^absentHi)>>15))
			em.transitions++
			hiRow, loRow := tw.w[(hi+1)*S:(hi+2)*S], tw.w[lo*S:(lo+1)*S]
			for l, ql := range q {
				dst[l] += ql * (hiRow[l] - loRow[l])
			}
			if last {
				return
			}
			lo = hi + 1
		}
	}
	lo, hi := 0, tw.step
	for b := tw.loHi; b != 0; b &= b - 1 {
		if v := int(uint16(k>>uint(bits.TrailingZeros64(b)-15)) + 1); v > lo {
			lo = v
		}
	}
	for b := tw.hiHi; b != 0; b &= b - 1 {
		if v := int(uint16(k >> uint(bits.TrailingZeros64(b)-15))); v < hi {
			hi = v
		}
	}
	minHi, maxHi, retireAll := tw.minHi, tw.maxHi, tw.retireAll
	for j := lo; j <= hi; j++ {
		jj := uint64(j) * laneLo
		geHi := ((k | laneHi) - jj) & laneHi
		succ := k + (geHi&^absentHi)>>15
		// Feed: a minimum takes j where it was absent or at or after j, a
		// maximum where it was absent or before j.
		set := (geHi&minHi | (absentHi|^geHi)&maxHi) >> 15 * 0xFFFF
		succ = succ&^set | jj&set
		dst := dl.valsAt(dl.slot64(succ | retireAll))
		em.transitions++
		wrow := tw.w[j*S : (j+1)*S]
		for l, ql := range q {
			dst[l] += ql * wrow[l]
		}
	}
}

// wideFeed is the feed step on the word vector of a state wider than
// packedWords: the interval from the step's bound sets, then per insertion
// point a copy that shifts the positions at or after it, the feed and the
// retirement.
func (tw *twoLabelWalk) wideFeed(next, vals []int16, q []float64, em *emitter) {
	lo, hi := 0, tw.step
	for wi, b := range tw.lo {
		for ; b != 0; b &= b - 1 {
			if v := vals[wi<<6|bits.TrailingZeros64(b)]; v != absent && int(v) >= lo {
				lo = int(v) + 1
			}
		}
	}
	for wi, b := range tw.hi {
		for ; b != 0; b &= b - 1 {
			if v := vals[wi<<6|bits.TrailingZeros64(b)]; v != absent && int(v) < hi {
				hi = int(v)
			}
		}
	}
	S := len(q)
	for j := lo; j <= hi; j++ {
		jj := int16(j)
		for s, v := range vals {
			if v != absent && v >= jj {
				v++
			}
			next[s] = v
		}
		for wi, b := range tw.feedMin {
			for ; b != 0; b &= b - 1 {
				if s := wi<<6 | bits.TrailingZeros64(b); next[s] == absent || jj < next[s] {
					next[s] = jj
				}
			}
		}
		for wi, b := range tw.feedMax {
			for ; b != 0; b &= b - 1 {
				if s := wi<<6 | bits.TrailingZeros64(b); next[s] == absent || jj > next[s] {
					next[s] = jj
				}
			}
		}
		for wi, b := range tw.retire {
			for ; b != 0; b &= b - 1 {
				next[wi<<6|bits.TrailingZeros64(b)] = absent
			}
		}
		dst := em.window(next)
		wrow := tw.w[j*S : (j+1)*S]
		for l, ql := range q {
			dst[l] += ql * wrow[l]
		}
	}
}

// wideGap is the gap step on the word vector of a state wider than
// packedWords.
func (tw *twoLabelWalk) wideGap(next, vals []int16, q []float64, em *emitter) {
	S := len(q)
	for lo := 0; ; {
		hi := 0xFFFF
		for _, v := range vals {
			if v := int(uint16(v)); v >= lo && v < hi {
				hi = v
			}
		}
		last := hi == 0xFFFF
		if last {
			hi = tw.step
		}
		jj := int16(lo)
		for s, v := range vals {
			if v != absent && v >= jj {
				v++
			}
			next[s] = v
		}
		dst := em.window(next)
		hiRow, loRow := tw.w[(hi+1)*S:(hi+2)*S], tw.w[lo*S:(lo+1)*S]
		for l, ql := range q {
			dst[l] += ql * (hiRow[l] - loRow[l])
		}
		if last {
			return
		}
		lo = hi + 1
	}
}
