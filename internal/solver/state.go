package solver

// This file implements the packed DP state representation shared by every
// exact solver: a state is a fixed-width vector of int16 words (tracker
// positions, packed constraint bits, or (item, position) entries depending
// on the solver), and a DP layer is an insertion-ordered open-addressing
// table from state vectors to probability mass, one value per session lane
// of the walk. Narrow states — at most packedWords words, which covers the
// benchmark fixtures and most serving traffic — pack into a single uint64
// key, so the hot path hashes and compares one machine word instead of
// allocating a string per successor the way the previous map[string]int
// layer did. Wider states fall back to a flat []int16 arena (still
// allocation-free in steady state: the arena is one slice shared by all
// states of the layer).

// packedWords is the widest state (in int16 words) that packs into a
// single uint64 key.
const packedWords = 4

// packWords packs at most packedWords int16 words into one uint64,
// little-endian. Unused high bits are zero for every key of a given width,
// so keys of the same layer never collide across widths.
func packWords(w []int16) uint64 {
	var k uint64
	for i, v := range w {
		k |= uint64(uint16(v)) << (16 * uint(i))
	}
	return k
}

// unpackWords writes the packed key's words back into buf.
func unpackWords(k uint64, buf []int16) {
	for j := range buf {
		buf[j] = int16(uint16(k >> (16 * uint(j))))
	}
}

// hash64 is the SplitMix64 finalizer: a fast, well-mixing hash for packed
// state keys. The hash only chooses probe slots — insertion order, and
// with it every solver result bit, is hash-independent.
func hash64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// hashWords hashes a wide state vector: FNV-1a over the words, finalized by
// hash64 to spread entropy into the high bits the table mask uses.
func hashWords(w []int16) uint64 {
	h := uint64(1469598103934665603)
	for _, v := range w {
		h ^= uint64(uint16(v))
		h *= 1099511628211
	}
	return hash64(h)
}

// layerTable is an insertion-ordered DP layer: states map to accumulated
// probability mass, and iteration follows first-insertion order. The
// solvers fold probability mass state by state and several source states
// can merge into one successor; insertion order makes that fold — and with
// it the last bits of every solver's answer — deterministic. The table is
// open-addressing with linear probing over uint32 slots (index+1, 0 =
// empty), specialized to integer keys: packed layers compare uint64s, wide
// layers compare []int16 windows of a shared arena. All backing slices are
// retained across reset so a recycled layer adds states without
// allocating.
type layerTable struct {
	words  int  // int16 words per state key
	packed bool // words <= packedWords: keys stored as uint64
	// stride is the number of float64 values per state, one per session lane
	// of the walk: vals[i*stride:(i+1)*stride] is state i's per-lane mass.
	stride int
	n      int // states in the layer
	// tab slots hold generation<<32 | state-index+1. A slot whose
	// generation differs from gen is empty: reset just bumps gen instead of
	// clearing the table, so recycling a layer is O(1) regardless of the
	// previous layer's size.
	tab    []uint64
	gen    uint64
	keys64 []uint64  // packed keys, insertion order
	keysW  []int16   // wide-key arena: state i is keysW[i*words:(i+1)*words]
	vals   []float64 // probability mass, insertion order, stride per state
}

// reset reconfigures the layer for a new width and value stride, keeping
// capacity. The table is sized for about hint states before the first
// growth.
func (l *layerTable) reset(words, hint, stride int) {
	l.words = words
	l.packed = words <= packedWords
	l.stride = stride
	l.n = 0
	l.gen += 1 << 32
	if l.gen == 0 { // generation counter wrapped: stale slots could alias
		clear(l.tab)
		l.gen = 1 << 32
	}
	need := 2 * hint
	sz := 16
	for sz < need {
		sz <<= 1
	}
	if cap(l.tab) >= sz {
		l.tab = l.tab[:sz]
	} else {
		l.tab = make([]uint64, sz)
		l.gen = 1 << 32 // fresh zeroed table: restart generations
	}
	l.keys64 = l.keys64[:0]
	l.keysW = l.keysW[:0]
	l.vals = l.vals[:0]
}

// start resets the layer to the single state w carrying mass 1 in each of
// the lanes: the initial layer of a walk.
func (l *layerTable) start(w []int16, lanes int) {
	l.reset(len(w), 1, lanes)
	for s, v := 0, l.valsAt(l.slotWords(w)); s < lanes; s++ {
		v[s] = 1
	}
}

// len returns the number of states in the layer.
func (l *layerTable) len() int { return l.n }

// valsAt returns state i's value window, one float per session lane.
func (l *layerTable) valsAt(i int) []float64 {
	return l.vals[i*l.stride : (i+1)*l.stride]
}

// keyW returns the wide key of state i as a window into the arena.
func (l *layerTable) keyW(i int) []int16 {
	return l.keysW[i*l.words : (i+1)*l.words]
}

// state returns state i as the expand step reads it: its uint64 key and a
// nil window on a packed layer, its arena window on a wide one. The window
// is only valid until the layer is reset; callers must not mutate it.
func (l *layerTable) state(i int) (uint64, []int16) {
	if l.packed {
		return l.keys64[i], nil
	}
	return 0, l.keyW(i)
}

// genMask selects a slot's generation bits.
const genMask = ^uint64(0xFFFFFFFF)

// slot64 returns the value-window index of the packed state k, appending a
// zeroed window on first touch; the solvers fold per-lane mass into the
// window themselves.
func (l *layerTable) slot64(k uint64) int {
	if l.n >= len(l.tab)-len(l.tab)/4 {
		l.grow()
	}
	mask := uint32(len(l.tab) - 1)
	i := uint32(hash64(k)) & mask
	for {
		e := l.tab[i]
		if e&genMask != l.gen {
			idx := l.n
			l.n++
			l.tab[i] = l.gen | uint64(idx+1)
			l.keys64 = append(l.keys64, k)
			for s := 0; s < l.stride; s++ {
				l.vals = append(l.vals, 0)
			}
			return idx
		}
		if idx := uint32(e) - 1; l.keys64[idx] == k {
			return int(idx)
		}
		i = (i + 1) & mask
	}
}

// slotWords returns the value-window index of the state with word vector w,
// appending a zeroed window on first touch. Packed layers delegate to
// slot64.
func (l *layerTable) slotWords(w []int16) int {
	if l.packed {
		return l.slot64(packWords(w))
	}
	if l.n >= len(l.tab)-len(l.tab)/4 {
		l.grow()
	}
	mask := uint32(len(l.tab) - 1)
	i := uint32(hashWords(w)) & mask
	for {
		e := l.tab[i]
		if e&genMask != l.gen {
			idx := l.n
			l.n++
			l.tab[i] = l.gen | uint64(idx+1)
			l.keysW = append(l.keysW, w...)
			for s := 0; s < l.stride; s++ {
				l.vals = append(l.vals, 0)
			}
			return idx
		}
		if idx := uint32(e) - 1; wordsEqual(l.keyW(int(idx)), w) {
			return int(idx)
		}
		i = (i + 1) & mask
	}
}

func wordsEqual(a, b []int16) bool {
	for i, v := range a {
		if b[i] != v {
			return false
		}
	}
	return true
}

// grow doubles the probe table and re-seats every state; key storage and
// insertion order are untouched. The resized table is cleared (a fresh or
// zeroed array) so it only contains current-generation entries — stale
// generations never mix with re-seated slots.
func (l *layerTable) grow() {
	sz := 2 * len(l.tab)
	if cap(l.tab) >= sz {
		l.tab = l.tab[:sz]
		clear(l.tab)
	} else {
		l.tab = make([]uint64, sz)
	}
	mask := uint32(sz - 1)
	for idx := 0; idx < l.n; idx++ {
		var h uint64
		if l.packed {
			h = hash64(l.keys64[idx])
		} else {
			h = hashWords(l.keyW(idx))
		}
		i := uint32(h) & mask
		for l.tab[i] != 0 {
			i = (i + 1) & mask
		}
		l.tab[i] = l.gen | uint64(idx+1)
	}
}

// mergeFrom folds every state of src into l in src's insertion order, each
// per-lane value window element-wise; both layers share the same stride.
// Because parallel expansion splits the source layer into contiguous
// chunks, merging the chunk sublayers in chunk order reproduces the
// sequential first-touch order exactly — the merged layer's state order is
// identical to a sequential expansion's. The merged values use the chunked
// association (per-chunk subtotals folded in chunk order), which is fixed
// by the deterministic chunk boundaries; see runStep.
func (l *layerTable) mergeFrom(src *layerTable) {
	for i := 0; i < src.n; i++ {
		var idx int
		if src.packed {
			idx = l.slot64(src.keys64[i])
		} else {
			idx = l.slotWords(src.keyW(i))
		}
		dst := l.valsAt(idx)
		for s, v := range src.valsAt(i) {
			dst[s] += v
		}
	}
}
