package server

import (
	"encoding/json"
	"fmt"
	"maps"
	"math"
	"slices"
	"strconv"
	"strings"
	"unicode/utf8"
)

// This file is the one writer of /v1/query JSON answers, shard and
// coordinator alike: an appender that emits exactly the bytes json.Encoder
// with SetIndent("", "  ") writes for V1Response and cluster.ResponseJSON,
// trailing newline included, with no reflection and no compact pass to
// re-indent. encoding/json keeps the admin endpoints, error bodies, the
// NDJSON stream, and the consensus section (which it renders at its depth:
// a consensus answer costs its solve, not its print).

// JSONWriter appends indented JSON to a byte slice. Field names are written
// verbatim and must need no escaping; strings, floats and the layout follow
// encoding/json. The first float it cannot encode (NaN, ±Inf) becomes the
// writer's error, naming its field.
type JSONWriter struct {
	buf   []byte
	depth int
	// empty reports that the innermost open container has no member yet.
	empty bool
	// field is the last member name written, for the error.
	field string
	err   error
}

// AppendV1Response appends the indented JSON of a /v1/query envelope (result,
// results, batch; each omitted when empty) to dst. R is the envelope's
// result type and fields writes one result's members: the shard's V1Response
// passes (*JSONWriter).V1ResultFields, the cluster coordinator the same plus
// its cluster diagnostic. On error it returns dst's bytes unextended.
func AppendV1Response[R any](dst []byte, result *R, results []R, batch *BatchJSON, fields func(*JSONWriter, *R)) ([]byte, error) {
	w := &JSONWriter{buf: dst}
	member := func(r *R) {
		w.BeginObject()
		fields(w, r)
		w.EndObject()
	}
	w.BeginObject()
	if result != nil {
		w.Field("result")
		member(result)
	}
	if len(results) > 0 {
		w.Field("results")
		array(w, results, member)
	}
	if b := batch; b != nil {
		w.Field("batch").BeginObject()
		w.Field("groups").int(b.Groups)
		w.Field("instances").int(b.Instances)
		w.Field("solved").int(b.Solved)
		w.Field("cache_hits").int(b.CacheHits)
		w.EndObject()
	}
	w.EndObject()
	w.buf = append(w.buf, '\n')
	if w.err != nil {
		return w.buf[:len(dst)], w.err
	}
	return w.buf, nil
}

// AppendJSON appends the response's indented JSON to dst: what ServeJSON
// writes for it.
func (r *V1Response) AppendJSON(dst []byte) ([]byte, error) {
	return AppendV1Response(dst, r.Result, r.Results, r.Batch, (*JSONWriter).V1ResultFields)
}

// V1ResultFields writes the members of one result into the open object, in
// V1Result's field order, omitting what its tags omit.
func (w *JSONWriter) V1ResultFields(r *V1Result) {
	w.Field("kind").str(r.Kind)
	w.Field("prob").float(r.Prob)
	w.Field("count").float(r.Count)
	w.Field("live_sessions").int(r.LiveSessions)
	w.Field("solves").int(r.Solves)
	w.Field("cache_hits").int(r.CacheHits)
	if len(r.Top) > 0 {
		w.Field("top").sessionProbs(r.Top)
	}
	if len(r.PerSession) > 0 {
		w.Field("per_session").sessionProbs(r.PerSession)
	}
	if d := r.Diag; d != nil {
		w.Field("diag").BeginObject()
		w.Field("bound_solves").int(d.BoundSolves)
		w.Field("bound_cache_hits").int(d.BoundCacheHits)
		w.Field("exact_solves").int(d.ExactSolves)
		w.Field("sessions_evaluated").int(d.SessionsEvaluated)
		w.Field("cache_hits").int(d.CacheHits)
		w.EndObject()
	}
	if p := r.Plan; p != nil {
		w.Field("plan").plan(p)
	}
	if a := r.Aggregate; a != nil {
		w.Field("aggregate").aggregate(a)
	}
	if c := r.CountDist; c != nil {
		w.Field("countdist").BeginObject()
		w.Field("n").int(c.N)
		w.Field("mean").float(c.Mean)
		w.Field("stddev").float(c.StdDev)
		w.Field("mode").int(c.Mode)
		w.Field("median").int(c.Median)
		w.Field("lo95").int(c.Lo95)
		w.Field("hi95").int(c.Hi95)
		w.Field("pmf")
		array(w, c.PMF, func(f *float64) { w.float(*f) })
		w.EndObject()
	}
	if c := r.Consensus; c != nil {
		w.Field("consensus")
		b, err := json.MarshalIndent(c, strings.Repeat("  ", w.depth), "  ")
		if err != nil && w.err == nil {
			w.err = fmt.Errorf(`field "consensus": %w`, err)
		}
		w.buf = append(w.buf, b...)
	}
}

func (w *JSONWriter) plan(p *PlanJSON) {
	w.BeginObject()
	w.Field("exact_groups").int(p.ExactGroups)
	w.Field("sampled_groups").int(p.SampledGroups)
	w.Field("samples").int(p.Samples)
	w.Field("max_half_width").float(p.MaxHalfWidth)
	w.Field("prob_half_width").float(p.ProbHalfWidth)
	w.Field("count_half_width").float(p.CountHalfWidth)
	if len(p.Methods) > 0 {
		w.Field("methods").BeginObject()
		for _, k := range slices.Sorted(maps.Keys(p.Methods)) {
			w.next()
			w.str(k)
			w.buf = append(w.buf, ':', ' ')
			w.int(p.Methods[k])
		}
		w.EndObject()
	}
	w.EndObject()
}

func (w *JSONWriter) aggregate(a *AggregateJSON) {
	w.BeginObject()
	w.Field("sum").float(a.Sum)
	w.Field("count").float(a.Count)
	if a.Avg != nil {
		w.Field("avg").float(*a.Avg)
	}
	w.Field("sessions").int(a.Sessions)
	if len(a.Rows) > 0 {
		w.Field("rows")
		array(w, a.Rows, func(r *AggRowJSON) {
			w.BeginObject()
			w.Field("prob").float(r.Prob)
			w.Field("value").float(r.Value)
			w.EndObject()
		})
	}
	w.EndObject()
}

func (w *JSONWriter) sessionProbs(rows []SessionProbJSON) {
	array(w, rows, func(sp *SessionProbJSON) {
		w.BeginObject()
		w.Field("session").Strings(sp.Session)
		w.Field("prob").float(sp.Prob)
		w.EndObject()
	})
}

// array appends xs as an array, elem writing each element; null when xs is
// nil.
func array[T any](w *JSONWriter, xs []T, elem func(*T)) {
	if xs == nil {
		w.buf = append(w.buf, "null"...)
		return
	}
	w.open('[')
	for i := range xs {
		w.next()
		elem(&xs[i])
	}
	w.close(']')
}

// BeginObject opens an object.
func (w *JSONWriter) BeginObject() { w.open('{') }

// EndObject closes the innermost open object.
func (w *JSONWriter) EndObject() { w.close('}') }

// Field starts a member of the open object: separator, indentation and
// name. It returns w for the value that must follow.
func (w *JSONWriter) Field(name string) *JSONWriter {
	w.next()
	w.field = name
	w.buf = append(w.buf, '"')
	w.buf = append(w.buf, name...)
	w.buf = append(w.buf, '"', ':', ' ')
	return w
}

// Bool appends a boolean.
func (w *JSONWriter) Bool(b bool) { w.buf = strconv.AppendBool(w.buf, b) }

// Ints appends an array of integers; null when xs is nil.
func (w *JSONWriter) Ints(xs []int) { array(w, xs, func(x *int) { w.int(*x) }) }

// Strings appends an array of strings; null when ss is nil.
func (w *JSONWriter) Strings(ss []string) { array(w, ss, func(s *string) { w.str(*s) }) }

func (w *JSONWriter) int(n int) { w.buf = strconv.AppendInt(w.buf, int64(n), 10) }

// str appends a string with encoding/json's HTML-safe escaping.
func (w *JSONWriter) str(s string) { w.buf = appendJSONString(w.buf, s) }

// float appends f as encoding/json does: the shortest repr, in exponent form
// below 1e-6 and from 1e21 on, with e-09 written e-9.
func (w *JSONWriter) float(f float64) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		if w.err == nil {
			w.err = fmt.Errorf("field %q: unsupported value %v", w.field, f)
		}
		return
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	w.buf = strconv.AppendFloat(w.buf, f, format, -1, 64)
	if b, n := w.buf, len(w.buf); format == 'e' && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		w.buf = b[:n-1]
	}
}

// indents holds a newline and the indentation of depth d in its first 1+2d
// bytes.
const indents = "\n                                "

// next starts a member of the open container: its separator and a new
// indented line.
func (w *JSONWriter) next() {
	if !w.empty {
		w.buf = append(w.buf, ',')
	}
	w.empty = false
	w.newline()
}

func (w *JSONWriter) newline() {
	if n := 1 + 2*w.depth; n <= len(indents) {
		w.buf = append(w.buf, indents[:n]...)
		return
	}
	w.buf = append(w.buf, '\n')
	for range w.depth {
		w.buf = append(w.buf, ' ', ' ')
	}
}

// open and close bracket a container; an empty one stays on its line ([]
// or {}), as encoding/json's indent leaves it.
func (w *JSONWriter) open(c byte) {
	w.buf = append(w.buf, c)
	w.depth++
	w.empty = true
}

func (w *JSONWriter) close(c byte) {
	w.depth--
	if !w.empty {
		w.newline()
	}
	w.empty = false // the container was a member of its parent
	w.buf = append(w.buf, c)
}

// jsonEscape says how encoding/json, HTML escaping on, writes each ASCII
// byte: 0 as itself, 'u' as \u00XX, any other e as a backslash and e.
var jsonEscape = func() (t [utf8.RuneSelf]byte) {
	for b := range 0x20 {
		t[b] = 'u'
	}
	t['<'], t['>'], t['&'] = 'u', 'u', 'u'
	t['"'], t['\\'], t['\b'], t['\f'], t['\n'], t['\r'], t['\t'] = '"', '\\', 'b', 'f', 'n', 'r', 't'
	return t
}()

const hexDigits = "0123456789abcdef"

// appendJSONString appends s quoted as encoding/json writes it: ASCII as
// jsonEscape says, U+2028 and U+2029 as \u2028 and \u2029, and each invalid
// UTF-8 byte as the six bytes \ufffd.
func appendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			e := jsonEscape[b]
			if e == 0 {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			if e == 'u' {
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			} else {
				dst = append(dst, '\\', e)
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		case c == '\u2028' || c == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}
