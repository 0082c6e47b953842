package server

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
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

// FuzzWireClassifyBatch is the serving-side property of the wire: whatever
// bytes arrive as a classify-batch body, the handler never panics and never
// answers 5xx, and a 200 carries exactly one result per header of the body,
// each agreeing with the tenant's own Lookup on the decoded header. The
// tenant serves from linear so every dimension a header can carry is live.
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
		// One header over the batch cap.
		`{"headers":[` + strings.Repeat(`{},`, maxBatchHeaders) + `{}]}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/tenants/fz/classify-batch", bytes.NewReader(body)))
		if rec.Code >= 500 {
			t.Fatalf("status %d (body %q)", rec.Code, rec.Body.String())
		}
		if rec.Code != http.StatusOK {
			return
		}
		var req ClassifyBatchRequest
		if err := json.Unmarshal(body, &req); err != nil {
			t.Fatalf("200 for a body that does not unmarshal: %v", err)
		}
		var resp ClassifyBatchResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("own response %q does not unmarshal: %v", rec.Body.String(), err)
		}
		if len(resp.Results) != len(req.Headers) || resp.Report.Packets != len(req.Headers) {
			t.Fatalf("%d results (report: %d packets) for %d headers", len(resp.Results), resp.Report.Packets, len(req.Headers))
		}
		for i, wh := range req.Headers {
			hd, err := decodeHeader(wh)
			if err != nil {
				t.Fatalf("200 for a batch whose header %d does not decode: %v", i, err)
			}
			if want := encodeResult(tenant.Classifier.Lookup(hd)); !reflect.DeepEqual(resp.Results[i], want) {
				t.Fatalf("header %d %+v: wire says %+v, Lookup says %+v", i, wh, resp.Results[i], want)
			}
		}
	})
}
