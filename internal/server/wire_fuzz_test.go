package server

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"sdnpc"
)

// FuzzWireRule is the codec property of the control channel: whatever bytes
// arrive as a rule body, decoding never panics, and every rule the decoder
// accepts survives the wire — encode, marshal, unmarshal, decode — with its
// match (every dimension), priority, action and termination intact. A rule
// that came back different would be installed as one thing and listed or
// deleted as another.
func FuzzWireRule(f *testing.F) {
	for _, seed := range []string{
		// The bodies of TestRulesCRUD ...
		`{"priority":0,"src":"10.0.0.0/8","dst":"192.168.1.0/24","dst_port":{"lo":80,"hi":80},"proto":6,"action":"forward","action_arg":3}`,
		`{"priority":1,"src":"172.16.0.0/12","action":"drop"}`,
		`{"priority":2,"action":"controller"}`,
		`{"priority":4,"src":"10.9.0.0/16","action":"modify","action_arg":7}`,
		`{"priority":6,"src":"not-a-prefix","action":"drop"}`,
		// ... and of TestExtendedDimensionWire.
		`{"priority":0,"tcp_flags":{"value":2,"mask":6},"non_terminating":true,"action":"controller"}`,
		`{"priority":1,"src6":"2001:db8::/32","action":"forward","action_arg":4}`,
		`{"priority":2,"vlan":100,"action":"modify","action_arg":7}`,
		// The rule the five-tuple-only channel used to widen.
		`{"priority":0,"vlan":100,"non_terminating":true,"action":"group","action_arg":9}`,
		// Reproducer: flag value bits outside the mask used to survive the
		// rule builder but not the wildcard-eliding encode.
		`{"tcp_flags":{"value":255,"mask":0},"action":"drop"}`,
		// Spellings the encoder elides or rewrites: host bits under the
		// prefix length, /0, a full port range, the untagged VLAN match.
		`{"src":"10.1.2.3/8","dst":"1.2.3.4/0","src_port":{"lo":0,"hi":65535},"vlan":0,"action":"drop"}`,
		`{"src6":"2001:db8::1/32","dst6":"::ffff:1.2.3.4/0","tcp_flags":{"value":3,"mask":2},"action":"drop"}`,
		// Malformed control messages: both families, inverted range, tag out
		// of range, unknown and missing action, truncated body.
		`{"src":"10.0.0.0/8","dst6":"2001:db8::/32","action":"drop"}`,
		`{"src_port":{"lo":9,"hi":1},"action":"drop"}`,
		`{"vlan":4096,"action":"drop"}`,
		`{"action":"count"}`,
		`{"priority":3}`,
		`{"priority":0,"src":"10.0.`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var wr WireRule
		if json.Unmarshal(body, &wr) != nil {
			return
		}
		r, err := decodeRule(wr)
		if err != nil {
			return
		}
		wire, err := json.Marshal(EncodeRule(r))
		if err != nil {
			t.Fatalf("marshalling accepted rule %v: %v", r, err)
		}
		var back WireRule
		if err := json.Unmarshal(wire, &back); err != nil {
			t.Fatalf("own encoding %s does not unmarshal: %v", wire, err)
		}
		r2, err := decodeRule(back)
		if err != nil {
			t.Fatalf("own encoding %s of accepted rule %v refused: %v", wire, r, err)
		}
		if !r2.SameMatch(r) || r2.Priority != r.Priority || r2.Action != r.Action ||
			r2.ActionArg != r.ActionArg || r2.NonTerminating != r.NonTerminating {
			t.Fatalf("rule changed on the wire:\n sent %v\n wire %s\n got  %v", r, wire, r2)
		}
	})
}

// FuzzWireClassifyBatch holds the classify-batch codec to encoding/json in
// both directions: whatever bytes arrive as a body, the handler never panics
// and answers 200 exactly when the encoding/json decode path it replaced
// (oracleClassifyBatch) accepts the body, and then writes byte for byte the
// body json.NewEncoder writes for that path's response, each result equal
// to the tenant's Lookup on the decoded header. The one divergence is
// deliberate: a repeated top-level "headers" key is a 400. The tenant
// serves from linear so every dimension a header can carry is live.
func FuzzWireClassifyBatch(f *testing.F) {
	srv := New(slog.New(slog.NewTextHandler(io.Discard, nil)))
	tenant, err := srv.Manager().Create("fz", TenantConfig{Engine: "linear"})
	if err != nil {
		f.Fatal(err)
	}
	// The rules of TestClassifyEndpoints and TestExtendedDimensionWire.
	for _, body := range []string{
		`{"priority":0,"tcp_flags":{"value":2,"mask":6},"non_terminating":true,"action":"controller"}`,
		`{"priority":1,"src6":"2001:db8::/32","action":"forward","action_arg":4}`,
		`{"priority":2,"vlan":100,"action":"modify","action_arg":7}`,
		`{"priority":3,"src":"10.0.0.0/8","action":"forward","action_arg":9}`,
	} {
		var wr WireRule
		if err := json.Unmarshal([]byte(body), &wr); err != nil {
			f.Fatal(err)
		}
		r, err := decodeRule(wr)
		if err != nil {
			f.Fatal(err)
		}
		if _, err := tenant.Classifier.Insert(r); err != nil {
			f.Fatal(err)
		}
	}
	h := srv.Handler()

	const one = `{"src_ip":"10.0.0.1","dst_ip":"2.2.2.2"}`
	for _, seed := range []string{
		// The bodies of TestClassifyEndpoints ...
		`{"headers":[{"src_ip":"10.0.0.1","src_port":0,"dst_ip":"2.2.2.2","dst_port":0,"proto":0},{"src_ip":"11.0.0.1","src_port":0,"dst_ip":"2.2.2.2","dst_port":0,"proto":0}]}`,
		`{"headers":null}`,
		`{"headers":[{"src_ip":"10.0.0.1","dst_ip":"bogus"}]}`,
		`{`,
		// ... and the headers of TestExtendedDimensionWire.
		`{"headers":[{"src_ip":"2001:db8::1","dst_ip":"2001:db8::2","proto":6,"tcp_flags":2},{"src_ip":"10.0.0.1","dst_ip":"10.0.0.2","proto":6,"vlan":100,"tcp_flags":16}]}`,
		`{"headers":[{"src_ip":"2001:db8::1","dst_ip":"10.0.0.2"}]}`,
		// Truncated, out-of-range, mistyped, doubled and trailing bodies.
		`{"headers":[{"src_ip":"10.0.0.1","dst_ip":"2.2.`,
		`{"headers":[{"src_ip":"10.0.0.1","dst_ip":"2.2.2.2","src_port":65536}]}`,
		`{"headers":[{"src_ip":"10.0.0.1","dst_ip":"2.2.2.2","vlan":4096,"proto":256}]}`,
		`{"headers":{"src_ip":"10.0.0.1"}}`,
		`{"headers":[{"src_ip":"10.0.0.1","dst_ip":"2.2.2.2"}]}{"headers":[]}`,
		`[]`,
		``,
		// A tag past 802.1Q's 12 bits (it used to alias onto vlan 100).
		`{"headers":[{"src_ip":"1.1.1.1","dst_ip":"2.2.2.2","vlan":4196}]}`,
		// Keys matched under case folding, including a non-ASCII fold
		// (U+017F folds to 's') and an escaped key.
		`{"HEADERS":[{"Src_IP":"10.0.0.1","DST_IP":"2.2.2.2","Proto":6,"VLAN":100,"Tcp_Flags":2}]}`,
		`{"headerſ":[` + one + `],"head\u0065rs_":[]}`,
		`{"head\u0065rs":[{"src_\u0069p":"10.0.0.1","dst_ip":"2.2.2.2"}]}`,
		// An escaped character inside an address, and non-ASCII ones.
		`{"headers":[{"src_ip":"1\u0030.0.0.1","dst_ip":"2.2.2.2"}]}`,
		`{"headers":[{"src_ip":"1０.0.0.1","dst_ip":"2.2.2.2"}]}`,
		`{"headers":[{"src_ip":"10.0.0.1","dst_ip":"2.2.2.2","x":"\u00e9\ud83d\ude00` + "\xff" + `"}]}`,
		// Repeated and null fields: the last value wins, null keeps one.
		`{"headers":[{"src_ip":"9.9.9.9","src_ip":"10.0.0.1","dst_ip":"2.2.2.2","dst_ip":null,"proto":6,"proto":null,"vlan":null,"tcp_flags":null}]}`,
		`{"headers":[null]}`,
		// Numbers an integer field refuses.
		`{"headers":[{"src_ip":"10.0.0.1","dst_ip":"2.2.2.2","proto":1e2}]}`,
		`{"headers":[{"src_ip":"10.0.0.1","dst_ip":"2.2.2.2","proto":-0}]}`,
		`{"headers":[{"src_ip":"10.0.0.1","dst_ip":"2.2.2.2","proto":1.0}]}`,
		`{"headers":[{"src_ip":"10.0.0.1","dst_ip":"2.2.2.2","proto":"6"}]}`,
		`{"headers":[{"src_ip":"10.0.0.1","dst_ip":"2.2.2.2","dst_port":018}]}`,
		// Unknown keys with nested values of every type.
		`{"x":{"y":[1,-2.5e+3,0.5E-1,true,false,null,"s\"\\\/\b\f\n\r\t\u00e9"]},"headers":[{"src_ip":"10.0.0.1","opts":{"a":[{},[]]},"dst_ip":"2.2.2.2"}],"z":[]}`,
		`{"x":[1,],"headers":[` + one + `]}`,
		`{"x":"\x","headers":[` + one + `]}`,
		// Whitespace around every token, and trailing garbage.
		" \t\r\n{ \"headers\" : [ { \"src_ip\" : \"10.0.0.1\" , \"dst_ip\" : \"2.2.2.2\" } ] } \n",
		`{"headers":[` + one + `]}x`,
		`{"headers":[` + one + `],}`,
		// encoding/json's nesting limit: 10 000 open levels pass, 10 001 do not.
		`{"x":` + strings.Repeat("[", 9999) + strings.Repeat("]", 9999) + `,"headers":[` + one + `]}`,
		`{"x":` + strings.Repeat("[", 10000) + strings.Repeat("]", 10000) + `,"headers":[` + one + `]}`,
		// A repeated "headers" key, which encoding/json would merge.
		`{"headers":[{"src_ip":"10.0.0.1","dst_ip":"2.2.2.2","proto":6}],"headers":[{"src_ip":"11.0.0.1"}]}`,
		`{"headers":null,"Headers":[` + one + `]}`,
		// One header over the batch cap.
		`{"headers":[` + strings.Repeat(`{},`, maxBatchHeaders) + `{}]}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/tenants/fz/classify-batch", bytes.NewReader(body)))
		want, ok := oracleClassifyBatch(t, tenant.Classifier, body)
		switch {
		case !ok && rec.Code != http.StatusBadRequest:
			t.Fatalf("status %d (body %q) for a body the encoding/json path refuses", rec.Code, rec.Body.String())
		case ok && rec.Code != http.StatusOK:
			t.Fatalf("status %d (body %q) for a body the encoding/json path accepts", rec.Code, rec.Body.String())
		case ok && !bytes.Equal(rec.Body.Bytes(), want):
			t.Fatalf("response differs from encoding/json's:\n got  %q\n want %q", rec.Body.String(), want)
		}
	})
}

// oracleClassifyBatch is the classify-batch handler as it was written over
// encoding/json — json.Decoder and decodeOne, the header-count bounds,
// decodeHeader, json.NewEncoder — kept as the reference for the
// hand-written codec. Each result is the tenant's own Lookup on the decoded
// header, so the handler's batch lookup is held to the single-header path
// too. It returns the body a 200 must carry, or false when the handler must
// answer 400.
func oracleClassifyBatch(t *testing.T, c *sdnpc.Classifier, body []byte) ([]byte, bool) {
	var req ClassifyBatchRequest
	if decodeOne(json.NewDecoder(bytes.NewReader(body)), &req) != nil {
		return nil, false
	}
	if len(req.Headers) == 0 || len(req.Headers) > maxBatchHeaders || repeatsHeaders(body) {
		return nil, false
	}
	results := make([]sdnpc.Result, len(req.Headers))
	for i, wh := range req.Headers {
		h, err := decodeHeader(wh)
		if err != nil {
			return nil, false
		}
		results[i] = c.Lookup(h)
	}
	report := sdnpc.SummarizeBatch(results)
	resp := ClassifyBatchResponse{
		Results: make([]WireResult, len(results)),
		Report: WireBatchReport{
			Packets:   report.Packets,
			Matched:   report.Matched,
			MatchRate: report.MatchRate(),
		},
	}
	for i, res := range results {
		resp.Results[i] = encodeResult(res)
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(resp); err != nil {
		t.Fatalf("encoding/json cannot encode the response: %v", err)
	}
	return buf.Bytes(), true
}

// repeatsHeaders reports whether the top-level object of body, which
// decodeOne accepted, holds more than one key that encoding/json decodes
// into ClassifyBatchRequest.Headers — the one body the codec deliberately
// refuses where encoding/json merges.
func repeatsHeaders(body []byte) bool {
	dec := json.NewDecoder(bytes.NewReader(body))
	if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
		return false
	}
	n := 0
	for dec.More() {
		key, _ := dec.Token()
		// encoding/json itself judges whether the key selects the field.
		quoted, _ := json.Marshal(key)
		var probe struct {
			Headers bool `json:"headers"`
		}
		_ = json.Unmarshal([]byte(`{`+string(quoted)+`:true}`), &probe)
		if probe.Headers {
			n++
		}
		var value json.RawMessage
		if dec.Decode(&value) != nil {
			return false
		}
	}
	return n > 1
}
