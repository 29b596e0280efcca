package solver

import (
	"math"
	"testing"
)

// pinnedBits are the answers of TwoLabel, Bipartite, BipartiteBasic and
// RelOrder on batchCases(t, 638, 2), case-major then lane-major, under the
// direct and the chunked expansion schedule, with and without tracker
// retirement. They were recorded at commit 0a42d61 (amd64) from the
// single-session executors that commit still carried beside the batched
// walk; since the batched walk is the only executor, they are what holds
// its one-lane case — and every lane of a wider walk — to the bits those
// executors answered.
var pinnedBits = []struct {
	name            string
	chunked, noDrop bool
	want            []uint64
}{
	{"sequential", false, false, []uint64{
		0x3fe8bc9528a2ccb8, 0x3feb7ed69b39b779, 0x3fe97f5f8bc32dae, 0x3fef55ca15a67067,
		0x3fe97f5f8bc32dae, 0x3fef55ca15a67067, 0x3feae6f7f883db84, 0x3fefffffffffffff,
		0x3ff0000000000000, 0x3fed39322abb82c1, 0x3febd86b2bd4e81e, 0x3fea020a305e94a6,
		0x3fe338d51821ca39, 0x3fe8113450797418, 0x3fefc740fa1cb854, 0x3feedd4c12ce20f1,
		0x3fefc740fa1cb852, 0x3feedd4c12ce20f1, 0x0000000000000000, 0x0000000000000000,
		0x3feb72dc5fdab5a5, 0x3fe92a06d4587cb9, 0x3fee5ca3a98731c3, 0x3fedb5987a55fed9,
		0x3fe2f8d63c35bc18, 0x3fe6273c90b9e254, 0x3fe58b08d877d22c, 0x3fbf9c44865643a9,
		0x3fe58b08d877d22c, 0x3fbf9c44865643a9, 0x0000000000000000, 0x0000000000000000,
		0x3feb0b2a9e3d4af4, 0x3fef38da41bb1b19, 0x3fe7bedf918b2835, 0x3feaba9813f04c64,
	}},
	{"sequential/no-tracker-drop", false, true, []uint64{
		0x3fe8bc9528a2ccb8, 0x3feb7ed69b39b779, 0x3fe97f5f8bc32dae, 0x3fef55ca15a67065,
		0x3fe97f5f8bc32dae, 0x3fef55ca15a67067, 0x3feae6f7f883db84, 0x3fefffffffffffff,
		0x3ff0000000000000, 0x3fed39322abb82c1, 0x3febd86b2bd4e81e, 0x3fea020a305e94a6,
		0x3fe338d51821ca3a, 0x3fe8113450797418, 0x3fefc740fa1cb854, 0x3feedd4c12ce20f0,
		0x3fefc740fa1cb852, 0x3feedd4c12ce20f1, 0x0000000000000000, 0x0000000000000000,
		0x3feb72dc5fdab5a5, 0x3fe92a06d4587cb8, 0x3fee5ca3a98731c2, 0x3fedb5987a55fee5,
		0x3fe2f8d63c35bc18, 0x3fe6273c90b9e254, 0x3fe58b08d877d22c, 0x3fbf9c44865643a9,
		0x3fe58b08d877d22c, 0x3fbf9c44865643a9, 0x0000000000000000, 0x0000000000000000,
		0x3feb0b2a9e3d4af4, 0x3fef38da41bb1b19, 0x3fe7bedf918b2835, 0x3feaba9813f04c64,
	}},
	{"chunked", true, false, []uint64{
		0x3fe8bc9528a2ccb8, 0x3feb7ed69b39b779, 0x3fe97f5f8bc32dae, 0x3fef55ca15a67067,
		0x3fe97f5f8bc32dad, 0x3fef55ca15a67067, 0x3feae6f7f883db84, 0x3fefffffffffffff,
		0x3ff0000000000000, 0x3fed39322abb82c1, 0x3febd86b2bd4e81e, 0x3fea020a305e94a6,
		0x3fe338d51821ca39, 0x3fe8113450797418, 0x3fefc740fa1cb854, 0x3feedd4c12ce20f1,
		0x3fefc740fa1cb852, 0x3feedd4c12ce20f1, 0x0000000000000000, 0x0000000000000000,
		0x3feb72dc5fdab5a5, 0x3fe92a06d4587cb9, 0x3fee5ca3a98731c3, 0x3fedb5987a55fed9,
		0x3fe2f8d63c35bc18, 0x3fe6273c90b9e254, 0x3fe58b08d877d22c, 0x3fbf9c44865643a9,
		0x3fe58b08d877d22c, 0x3fbf9c44865643a9, 0x0000000000000000, 0x0000000000000000,
		0x3feb0b2a9e3d4af4, 0x3fef38da41bb1b19, 0x3fe7bedf918b2835, 0x3feaba9813f04c64,
	}},
	{"chunked/no-tracker-drop", true, true, []uint64{
		0x3fe8bc9528a2ccb8, 0x3feb7ed69b39b779, 0x3fe97f5f8bc32dae, 0x3fef55ca15a67065,
		0x3fe97f5f8bc32dad, 0x3fef55ca15a67067, 0x3feae6f7f883db84, 0x3fefffffffffffff,
		0x3ff0000000000000, 0x3fed39322abb82c1, 0x3febd86b2bd4e81e, 0x3fea020a305e94a6,
		0x3fe338d51821ca3a, 0x3fe8113450797418, 0x3fefc740fa1cb854, 0x3feedd4c12ce20f0,
		0x3fefc740fa1cb852, 0x3feedd4c12ce20f1, 0x0000000000000000, 0x0000000000000000,
		0x3feb72dc5fdab5a5, 0x3fe92a06d4587cb8, 0x3fee5ca3a98731c2, 0x3fedb5987a55fee5,
		0x3fe2f8d63c35bc18, 0x3fe6273c90b9e254, 0x3fe58b08d877d22c, 0x3fbf9c44865643a9,
		0x3fe58b08d877d22c, 0x3fbf9c44865643a9, 0x0000000000000000, 0x0000000000000000,
		0x3feb0b2a9e3d4af4, 0x3fef38da41bb1b19, 0x3fe7bedf918b2835, 0x3feaba9813f04c64,
	}},
}

func TestSolverBitsPinned(t *testing.T) {
	for _, cfg := range pinnedBits {
		t.Run(cfg.name, func(t *testing.T) {
			if cfg.chunked {
				defer forceParallel(3)()
			}
			opts := Options{MaxInvolved: 16, NoTrackerDrop: cfg.noDrop}
			i := 0
			for _, c := range batchCases(t, 638, 2) {
				batched, err := c.solveLanes(opts)
				if err != nil {
					t.Fatalf("%s: batched: %v", c.name, err)
				}
				for li, mdl := range c.models {
					single, err := c.single(mdl, c.lab, c.u, opts)
					if err != nil {
						t.Fatalf("%s: single: %v", c.name, err)
					}
					if got := math.Float64bits(single); got != cfg.want[i] {
						t.Errorf("%s lane %d: single-shot %#016x, pinned %#016x", c.name, li, got, cfg.want[i])
					}
					if got := math.Float64bits(batched[li]); got != cfg.want[i] {
						t.Errorf("%s lane %d: lane of %d %#016x, pinned %#016x", c.name, li, len(c.models), got, cfg.want[i])
					}
					i++
				}
			}
			if i != len(cfg.want) {
				t.Fatalf("fixture yields %d answers, table pins %d", i, len(cfg.want))
			}
		})
	}
}
