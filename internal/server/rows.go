package server

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"slices"
	"strconv"

	"probpref/internal/ppd"
)

// This file is the coordinator↔shard wire: POST /v1/rows answers a /v1/query
// body with one packed binary frame instead of indented JSON. The cluster
// coordinator refolds per-session rows, so rows are most of what a shard
// sends it; as float64 bits they cost 8 bytes each and nothing to print or
// parse, and they arrive exactly as the shard computed them. The route is
// not a client API (clients read /v1/query); see docs/API.md for the layout.
//
// Frame, all integers little-endian:
//
//	"PPRW" | version u8 | flags u8 (bit 0: batch) | payload length u32 | payload
//
//	payload: [batch only: groups, instances, solved, cache_hits as 4 × u64]
//	         result count u32, then per result
//	  head length u32 | head: the rows-stripped V1Result as compact JSON
//	                    (countdist carries n only; consensus keeps its rows)
//	  flags u8 (bit 0: session keys follow the probabilities)
//	  n u32 | n × f64 bits: per-session probabilities | [keys: n × key]
//	  t u32 | t × f64 bits: top-k probabilities       | t × key
//	  a u32 | a × (f64, f64) bits: aggregate (prob, value) terms
//
//	key: part count u32 (0xFFFFFFFF: a nil key) | per part: length u32, bytes

const (
	rowsMagic       = "PPRW"
	rowsVersion     = 1
	rowsHeaderLen   = len(rowsMagic) + 2 + 4
	rowsContentType = "application/x-probpref-rows"

	rowsFlagBatch = 1 // frame flag: the answer of a "requests" batch
	rowsFlagKeys  = 1 // result flag: session keys travel with the probabilities

	rowsNilKey = math.MaxUint32 // part count of a nil session key

	// rowsResultMin is the size of an empty result: head length, flags and
	// three zero counts.
	rowsResultMin = 4 + 1 + 3*4
)

// RowsResult is one result of a decoded rows frame: the JSON head plus the
// row columns the coordinator's merge refolds.
type RowsResult struct {
	// Head is the V1Result without its rows: counters, diagnostics, plan,
	// aggregate sums, the countdist section with only N set, and the
	// consensus section including its per-session rows.
	Head V1Result
	// Probs holds the per-session probabilities in session order (bool, count
	// and countdist kinds).
	Probs []float64
	// Keys holds the session keys aligned with Probs; nil unless the request
	// set per_session.
	Keys [][]string
	// Top holds the partition's top-k rows, best first (topk kind).
	Top []SessionProbJSON
	// Agg holds the per-session aggregation terms in session order (aggregate
	// kind).
	Agg []ppd.AggRow
}

// RowsFrame is a decoded /v1/rows answer.
type RowsFrame struct {
	// Batch is the dedup accounting of a "requests" batch; nil for an inline
	// request.
	Batch *BatchJSON
	// Results holds the answers in request order (one for an inline request).
	Results []RowsResult
}

// handleV1Rows serves POST /v1/rows: the /v1/query front half
// (DecodeV1Query) with the answer framed for the cluster coordinator.
// per_session asks for the session keys beside the probabilities; errors
// stay JSON.
func (s *Service) handleV1Rows(w http.ResponseWriter, r *http.Request) {
	var ans *v1Answer
	q, err := DecodeV1Query(r.Body)
	if err == nil && q.Body.Stream {
		err = errors.New("stream is not valid on /v1/rows (a frame carries every row at once)")
	}
	if err == nil {
		ans, err = s.answer(r.Context(), q)
	}
	bp := jsonBufs.Get().(*[]byte)
	frame := (*bp)[:0]
	if err == nil {
		frame, err = appendRowsFrame(frame, ans)
	}
	if err != nil {
		serveJSON(w, func() (any, error) { return nil, err })
		return
	}
	w.Header().Set("Content-Type", rowsContentType)
	w.Header().Set("Content-Length", strconv.Itoa(len(frame)))
	w.Write(frame)
	if cap(frame) <= maxPooledJSON {
		*bp = frame[:0]
		jsonBufs.Put(bp)
	}
}

// appendRowsFrame appends the frame of an executed answer to dst.
func appendRowsFrame(dst []byte, ans *v1Answer) ([]byte, error) {
	le := binary.LittleEndian
	dst = append(dst, rowsMagic...)
	var flags byte
	if ans.batch != nil {
		flags |= rowsFlagBatch
	}
	dst = append(dst, rowsVersion, flags, 0, 0, 0, 0) // length patched below
	start := len(dst)
	if b := ans.batch; b != nil {
		for _, n := range [...]int{b.Groups, b.Instances, b.Solved, b.CacheHits} {
			dst = le.AppendUint64(dst, uint64(n))
		}
	}
	dst = le.AppendUint32(dst, uint32(len(ans.resps)))
	for i, resp := range ans.resps {
		var err error
		if dst, err = appendRowsResult(dst, resp, ans.q.Wire(i).PerSession); err != nil {
			return nil, &evalError{fmt.Errorf("server: framing result %d: %w", i+1, err)}
		}
	}
	if len(dst)-start > math.MaxUint32 {
		return nil, &evalError{fmt.Errorf("server: rows frame of %d bytes exceeds the format's 4 GiB", len(dst)-start)}
	}
	le.PutUint32(dst[start-4:], uint32(len(dst)-start))
	return dst, nil
}

// rowsHead is the head of a result's frame: the V1Result without the rows
// the columns carry.
func rowsHead(resp *ppd.Response) V1Result {
	head := v1Head(resp)
	if d := resp.Dist; d != nil {
		// The coordinator re-convolves the merged rows and reads only the
		// partition's session count; the partition PMF does not travel.
		head.CountDist = &CountDistJSON{N: d.N()}
	}
	if c := resp.Consensus; c != nil {
		head.Consensus.Rows = c.Rows
	}
	return head
}

// appendRowsResult appends one result: JSON head, then the packed columns.
func appendRowsResult(dst []byte, resp *ppd.Response, keys bool) ([]byte, error) {
	le := binary.LittleEndian
	head := rowsHead(resp)
	hb, err := json.Marshal(&head)
	if err != nil {
		return nil, err
	}
	var agg []ppd.AggRow
	if resp.Agg != nil {
		agg = resp.Agg.Rows
	}
	dst = slices.Grow(dst, rowsResultMin+len(hb)+8*len(resp.PerSession)+8*len(resp.Top)+16*len(agg))
	dst = le.AppendUint32(dst, uint32(len(hb)))
	dst = append(dst, hb...)
	var flags byte
	if keys {
		flags |= rowsFlagKeys
	}
	dst = append(dst, flags)

	dst = le.AppendUint32(dst, uint32(len(resp.PerSession)))
	for _, sp := range resp.PerSession {
		dst = le.AppendUint64(dst, math.Float64bits(sp.Prob))
	}
	if keys {
		for _, sp := range resp.PerSession {
			dst = appendRowsKey(dst, sp.Session.Key)
		}
	}
	dst = le.AppendUint32(dst, uint32(len(resp.Top)))
	for _, sp := range resp.Top {
		dst = le.AppendUint64(dst, math.Float64bits(sp.Prob))
	}
	for _, sp := range resp.Top {
		dst = appendRowsKey(dst, sp.Session.Key)
	}
	dst = le.AppendUint32(dst, uint32(len(agg)))
	for _, r := range agg {
		dst = le.AppendUint64(dst, math.Float64bits(r.Prob))
		dst = le.AppendUint64(dst, math.Float64bits(r.Value))
	}
	return dst, nil
}

// appendRowsKey appends one session key.
func appendRowsKey(dst []byte, key []string) []byte {
	le := binary.LittleEndian
	if key == nil {
		return le.AppendUint32(dst, rowsNilKey)
	}
	dst = le.AppendUint32(dst, uint32(len(key)))
	for _, part := range key {
		dst = le.AppendUint32(dst, uint32(len(part)))
		dst = append(dst, part...)
	}
	return dst
}

// DecodeRows decodes a /v1/rows answer. The frame comes off the network, so
// every count is checked against the bytes that remain before anything is
// allocated for it, and a frame with a foreign magic or version, a payload
// shorter or longer than declared, or bytes left over is an error.
func DecodeRows(data []byte) (*RowsFrame, error) {
	if len(data) < rowsHeaderLen || string(data[:len(rowsMagic)]) != rowsMagic {
		return nil, errors.New("server: not a rows frame")
	}
	version, flags := data[len(rowsMagic)], data[len(rowsMagic)+1]
	if version != rowsVersion {
		return nil, fmt.Errorf("server: rows frame version %d, want %d", version, rowsVersion)
	}
	if flags&^rowsFlagBatch != 0 {
		return nil, fmt.Errorf("server: rows frame flags %#x", flags)
	}
	r := rowsReader{b: data[rowsHeaderLen:]}
	if declared := binary.LittleEndian.Uint32(data[rowsHeaderLen-4:]); uint64(declared) != uint64(len(r.b)) {
		return nil, fmt.Errorf("server: rows frame declares %d payload bytes, %d follow", declared, len(r.b))
	}
	f := &RowsFrame{}
	if flags&rowsFlagBatch != 0 {
		f.Batch = &BatchJSON{Groups: r.count64(), Instances: r.count64(), Solved: r.count64(), CacheHits: r.count64()}
	}
	f.Results = make([]RowsResult, r.count(rowsResultMin))
	for i := range f.Results {
		r.result(&f.Results[i])
	}
	if r.err == nil && len(r.b) != 0 {
		r.fail("server: rows frame has %d bytes after its last result", len(r.b))
	}
	if r.err != nil {
		return nil, r.err
	}
	return f, nil
}

// rowsReader consumes a frame payload; the first failure sticks and every
// later read returns zero values.
type rowsReader struct {
	b   []byte
	err error
}

func (r *rowsReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
	}
	r.b = nil
}

// take consumes the next n bytes.
func (r *rowsReader) take(n int) []byte {
	if n > len(r.b) {
		r.fail("server: rows frame truncated: %d bytes wanted, %d left", n, len(r.b))
		return nil
	}
	out := r.b[:n]
	r.b = r.b[n:]
	return out
}

func (r *rowsReader) u32() uint32 {
	if b := r.take(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

// count64 reads a counter that sizes nothing.
func (r *rowsReader) count64() int {
	if b := r.take(8); b != nil {
		return int(binary.LittleEndian.Uint64(b))
	}
	return 0
}

// fits reports whether n elements of at least min bytes each can still
// follow, failing the read when they cannot.
func (r *rowsReader) fits(n uint32, min int) bool {
	if uint64(n)*uint64(min) > uint64(len(r.b)) {
		r.fail("server: rows frame claims %d elements of >= %d bytes with %d bytes left", n, min, len(r.b))
		return false
	}
	return true
}

// count reads an element count and checks it against the bytes that remain,
// so that a frame never sizes an allocation it does not pay for in bytes.
func (r *rowsReader) count(min int) int {
	if n := r.u32(); r.fits(n, min) {
		return int(n)
	}
	return 0
}

func (r *rowsReader) f64() float64 {
	if b := r.take(8); b != nil {
		return math.Float64frombits(binary.LittleEndian.Uint64(b))
	}
	return 0
}

func (r *rowsReader) key() []string {
	n := r.u32()
	if n == rowsNilKey || !r.fits(n, 4) {
		return nil
	}
	key := make([]string, n)
	for i := range key {
		key[i] = string(r.take(r.count(1)))
	}
	return key
}

// result reads one result into res.
func (r *rowsReader) result(res *RowsResult) {
	if head := r.take(r.count(1)); r.err == nil {
		if err := json.Unmarshal(head, &res.Head); err != nil {
			r.fail("server: rows frame head: %v", err)
		}
	}
	var flags byte
	if b := r.take(1); b != nil {
		flags = b[0]
	}
	if flags&^rowsFlagKeys != 0 {
		r.fail("server: rows frame result flags %#x", flags)
	}
	if n := r.count(8); n > 0 {
		res.Probs = make([]float64, n)
		for i := range res.Probs {
			res.Probs[i] = r.f64()
		}
		if flags&rowsFlagKeys != 0 && r.fits(uint32(n), 4) {
			res.Keys = make([][]string, n)
			for i := range res.Keys {
				res.Keys[i] = r.key()
			}
		}
	}
	if n := r.count(8 + 4); n > 0 {
		res.Top = make([]SessionProbJSON, n)
		for i := range res.Top {
			res.Top[i].Prob = r.f64()
		}
		for i := range res.Top {
			res.Top[i].Session = r.key()
		}
	}
	if n := r.count(16); n > 0 {
		res.Agg = make([]ppd.AggRow, n)
		for i := range res.Agg {
			res.Agg[i] = ppd.AggRow{Prob: r.f64(), Value: r.f64()}
		}
	}
}
