package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"unicode/utf8"
	"unsafe"

	"sdnpc"
)

// The classify routes' codec: the body is read into a pooled buffer and
// decoded by a small scanner, the response appended into another pooled
// buffer, so a request allocates per request, not per header. The scanner
// accepts exactly what json.Unmarshal into ClassifyBatchRequest (or
// WireHeader) accepts but a top-level object repeating "headers", which
// encoding/json would merge into the first array (docs/SERVICE.md, "Classify
// bodies"); FuzzWireClassifyBatch holds it to encoding/json.

// maxNestingDepth is encoding/json's limit on open arrays and objects.
const maxNestingDepth = 10000

// classifyScratch is the pooled per-request state of the classify routes.
type classifyScratch struct {
	body, out []byte
	headers   []sdnpc.Header
	results   []sdnpc.Result
}

var scratchPool = sync.Pool{New: func() any { return new(classifyScratch) }}

// putScratch pools s again unless a buffer outgrew the largest request the
// routes accept: a rare giant batch must not pin its buffers in the pool.
func putScratch(s *classifyScratch) {
	if cap(s.headers) <= maxBatchHeaders && cap(s.results) <= maxBatchHeaders &&
		cap(s.body) <= maxBodyBytes && cap(s.out) <= maxBodyBytes {
		scratchPool.Put(s)
	}
}

// readBody reads the request body whole into buf[:0], under readJSON's cap.
func readBody(w http.ResponseWriter, r *http.Request, buf []byte) ([]byte, error) {
	b := bytes.NewBuffer(buf[:0])
	_, err := b.ReadFrom(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		err = fmt.Errorf("decoding request body: %w", err)
	}
	return b.Bytes(), err
}

// decodeBatch decodes a classify-batch body into dst[:0]. Each header goes
// through decodeHeader as soon as its object closes.
func decodeBatch(body []byte, dst []sdnpc.Header) ([]sdnpc.Header, error) {
	s := &scanner{buf: body}
	dst = dst[:0]
	if !s.null() && s.open('{', "an object") {
		seen := false
		for first := true; s.more('}', first); first = false {
			switch {
			case matchKey(s.key(), "headers") == "":
				s.skip()
			case seen:
				s.failf(`the "headers" key is repeated`)
			default:
				seen = true
				dst = s.headers(dst)
			}
		}
	}
	if s.end(); s.err == nil && len(dst) == 0 {
		return dst, errors.New(`"headers" must hold at least one header`)
	}
	return dst, s.err
}

// decodeSingle decodes a …/classify body: one header object.
func decodeSingle(body []byte) (sdnpc.Header, error) {
	s := &scanner{buf: body}
	wh := s.header()
	if s.end(); s.err != nil {
		return sdnpc.Header{}, s.err
	}
	return decodeHeader(wh)
}

// headerKeys are WireHeader's JSON names in order (TestCodecKeysMatchWireTypes).
var headerKeys = []string{"src_ip", "src_port", "dst_ip", "dst_port", "proto", "vlan", "tcp_flags"}

// matchKey returns the name in names that key selects as encoding/json does:
// an exact match first, else one under Unicode case folding; "" if none.
func matchKey(key string, names ...string) string {
	for _, n := range names {
		if key == n {
			return n
		}
	}
	for _, n := range names {
		if strings.EqualFold(key, n) {
			return n
		}
	}
	return ""
}

// scanner walks one JSON body: pos is the next unread byte, depth the number
// of open arrays and objects, err the first error. Once err is set the
// scanner reads as if at the end of the body, so every walk unwinds, and
// the values it returns are meaningless.
type scanner struct {
	buf        []byte
	pos, depth int
	err        error
}

// stop records err (unless one is recorded already) and ends the walk.
func (s *scanner) stop(err error) {
	if s.err == nil {
		s.err = err
	}
	s.pos = len(s.buf)
}

func (s *scanner) failf(format string, args ...any) {
	s.stop(fmt.Errorf("decoding request body: offset %d: %s", s.pos, fmt.Sprintf(format, args...)))
}

// expected fails the walk: the byte at pos is not what the grammar wants.
func (s *scanner) expected(want string) {
	got := "the end of the body"
	if s.pos < len(s.buf) {
		got = strconv.Quote(string(s.buf[s.pos : s.pos+1]))
	}
	s.failf("want %s, got %s", want, got)
}

// peek skips whitespace and returns the next byte, 0 at the end.
func (s *scanner) peek() byte {
	for ; s.pos < len(s.buf); s.pos++ {
		if c := s.buf[s.pos]; c != ' ' && c != '\t' && c != '\n' && c != '\r' {
			return c
		}
	}
	return 0
}

// literal consumes lit at pos if it is there.
func (s *scanner) literal(lit string) bool {
	ok := len(s.buf)-s.pos >= len(lit) && string(s.buf[s.pos:s.pos+len(lit)]) == lit
	if ok {
		s.pos += len(lit)
	}
	return ok
}

func (s *scanner) null() bool { return s.peek() == 'n' && s.literal("null") }

// end fails the walk unless only whitespace follows the decoded value.
func (s *scanner) end() {
	if s.peek(); s.pos < len(s.buf) {
		s.expected("the end of the body")
	}
}

// open consumes delim, the '{' or '[' that must come next, and opens one
// nesting level.
func (s *scanner) open(delim byte, want string) bool {
	if s.peek() != delim {
		s.expected(want)
		return false
	}
	s.pos++
	if s.depth++; s.depth > maxNestingDepth {
		s.failf("more than %d nested arrays and objects", maxNestingDepth)
	}
	return s.err == nil
}

// more reports whether the array or object being walked has another
// element, consuming the ',' before it (unless first) or the closing delim.
func (s *scanner) more(delim byte, first bool) bool {
	c := s.peek()
	if c == delim {
		s.pos++
		s.depth--
		return false
	}
	if !first {
		if c != ',' {
			s.expected(fmt.Sprintf("',' or '%c'", delim))
			return false
		}
		s.pos++
	}
	return s.err == nil
}

// key consumes an object member's key and the ':' after it.
func (s *scanner) key() string {
	k := s.str()
	if s.peek() != ':' {
		s.expected("':'")
		return ""
	}
	s.pos++
	return k
}

// headers decodes the "headers" value (null or an array of header objects)
// onto dst.
func (s *scanner) headers(dst []sdnpc.Header) []sdnpc.Header {
	if s.null() || !s.open('[', "an array of headers") {
		return dst
	}
	for first := true; s.more(']', first); first = false {
		if len(dst) == maxBatchHeaders {
			s.stop(fmt.Errorf("batch exceeds the %d-header limit", maxBatchHeaders))
		} else if wh := s.header(); s.err == nil {
			h, err := decodeHeader(wh)
			if err != nil {
				s.stop(fmt.Errorf("header %d: %w", len(dst), err))
			}
			dst = append(dst, h)
		}
	}
	return dst
}

// header decodes one header object, or null (the zero header). Its address
// strings may be views of the body. A null value leaves a field as it was.
func (s *scanner) header() (wh WireHeader) {
	if s.null() || !s.open('{', "a header object") {
		return wh
	}
	for first := true; s.more('}', first); first = false {
		switch key := matchKey(s.key(), headerKeys...); {
		case s.null():
		case key == "src_ip":
			wh.SrcIP = s.str()
		case key == "src_port":
			wh.SrcPort = uint16(s.uint(math.MaxUint16))
		case key == "dst_ip":
			wh.DstIP = s.str()
		case key == "dst_port":
			wh.DstPort = uint16(s.uint(math.MaxUint16))
		case key == "proto":
			wh.Proto = uint8(s.uint(math.MaxUint8))
		case key == "vlan":
			wh.VLAN = uint16(s.uint(math.MaxUint16))
		case key == "tcp_flags":
			wh.TCPFlags = uint8(s.uint(math.MaxUint8))
		default:
			s.skip()
		}
	}
	return wh
}

// uint decodes a plain decimal literal in 0..limit (limit < 100 000). Like
// encoding/json it refuses 1e2, 1.0, -0 and out-of-range values.
func (s *scanner) uint(limit uint64) uint64 {
	start, num := s.pos, s.number()
	n, ok := uint64(0), len(num) <= 5
	for _, c := range num {
		ok = ok && '0' <= c && c <= '9'
		n = n*10 + uint64(c-'0')
	}
	if s.err == nil && (!ok || n > limit) {
		s.pos = start
		s.failf("%s is not an integer in 0..%d", num, limit)
	}
	return n
}

// skip consumes one value of any type, validating it as encoding/json does.
func (s *scanner) skip() {
	switch c := s.peek(); {
	case c == '{' && s.open('{', ""):
		for first := true; s.more('}', first); first = false {
			s.key()
			s.skip()
		}
	case c == '[' && s.open('[', ""):
		for first := true; s.more(']', first); first = false {
			s.skip()
		}
	case c == '"':
		s.str()
	case c == '-' || '0' <= c && c <= '9':
		s.number()
	case !s.literal("true") && !s.literal("false") && !s.literal("null"):
		s.expected("a JSON value")
	}
}

// number consumes one JSON number and returns its text. It takes the run
// of number bytes at pos: in a valid body that run is exactly one number.
// A run of digits with no leading zero is one; any other goes to json.Valid.
func (s *scanner) number() []byte {
	s.peek()
	start, digits := s.pos, true
	for ; s.pos < len(s.buf); s.pos++ {
		if c := s.buf[s.pos]; c < '0' || c > '9' {
			if strings.IndexByte("+-.eE", c) < 0 {
				break
			}
			digits = false
		}
	}
	num := s.buf[start:s.pos]
	if len(num) == 0 || !(digits && (num[0] != '0' || len(num) == 1)) && !json.Valid(num) {
		s.pos = start
		s.expected("a number")
		return nil
	}
	return num
}

// str consumes one JSON string and returns its value. A plain string
// (printable ASCII, no escape) is returned as a view of the body, valid
// until the buffer is reused; any other is checked and unquoted by
// encoding/json, so escapes and invalid UTF-8 decode as they would there.
func (s *scanner) str() string {
	if s.peek() != '"' {
		s.expected("a string")
		return ""
	}
	start, plain := s.pos, true
	for s.pos++; s.pos < len(s.buf); s.pos++ {
		switch c := s.buf[s.pos]; {
		case plainByte(c):
		case c == '"':
			s.pos++
			if plain {
				return unsafe.String(&s.buf[start+1], s.pos-start-2)
			}
			var v string
			if err := json.Unmarshal(s.buf[start:s.pos], &v); err != nil {
				s.pos = start
				s.failf("invalid string: %v", err)
			}
			return v
		case c < 0x20:
			s.expected("a string character")
			return ""
		case c == '\\' && s.pos+1 < len(s.buf):
			s.pos++ // an escaped byte, quote included, does not end the string
			plain = false
		default: // a byte outside ASCII
			plain = false
		}
	}
	s.pos = len(s.buf)
	s.expected(`'"'`)
	return ""
}

// plainByte reports whether c may stand in a plain string: printable ASCII
// but the quote and the backslash.
func plainByte(c byte) bool { return c >= 0x20 && c < utf8.RuneSelf && c != '"' && c != '\\' }

// appendBatchResponse appends the classify-batch response for results,
// byte for byte what json.NewEncoder(w).Encode(ClassifyBatchResponse{…})
// writes, trailing newline included. A batch result carries no Actions.
func appendBatchResponse(b []byte, results []sdnpc.Result) []byte {
	b = append(b, `{"results":[`...)
	for i, res := range results {
		if i > 0 {
			b = append(b, ',')
		}
		wr := encodeResult(res)
		b = strconv.AppendBool(append(b, `{"matched":`...), wr.Matched)
		b = strconv.AppendInt(append(b, `,"priority":`...), int64(wr.Priority), 10)
		if wr.Action != "" {
			// An action name is a plain identifier: it needs no escaping.
			b = append(append(append(b, `,"action":"`...), wr.Action...), '"')
		}
		if wr.ActionArg != 0 {
			b = strconv.AppendUint(append(b, `,"action_arg":`...), uint64(wr.ActionArg), 10)
		}
		b = strconv.AppendInt(append(b, `,"latency_cycles":`...), int64(wr.LatencyCycles), 10)
		b = append(b, '}')
	}
	rep := sdnpc.SummarizeBatch(results)
	b = strconv.AppendInt(append(b, `],"report":{"packets":`...), int64(rep.Packets), 10)
	b = strconv.AppendInt(append(b, `,"matched":`...), int64(rep.Matched), 10)
	b = appendFloat(append(b, `,"match_rate":`...), rep.MatchRate())
	b = appendFloat(append(b, `,"avg_latency_cycles":`...), rep.AverageLatencyCycles())
	b = strconv.AppendInt(append(b, `,"max_latency_cycles":`...), int64(rep.MaxLatencyCycles), 10)
	return append(b, "}}\n"...)
}

// appendFloat appends f as encoding/json writes a float64: 'f' format, or
// 'e' outside [1e-6, 1e21) with a two-digit negative exponent cleaned up
// (e-09 → e-9).
func appendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}
