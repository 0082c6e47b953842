package server

import (
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"sdnpc"
)

// TestCodecKeysMatchWireTypes keeps the decoder's key names on the exported
// wire types' JSON tags: headerKeys lists WireHeader's fields in order, the
// header scanner fills each one from its own key, and "headers" is
// ClassifyBatchRequest's one field. A field added to either type fails here,
// not silently as an unknown key.
func TestCodecKeysMatchWireTypes(t *testing.T) {
	tagNames := func(typ reflect.Type) []string {
		var names []string
		for i := range typ.NumField() {
			name, _, _ := strings.Cut(typ.Field(i).Tag.Get("json"), ",")
			names = append(names, name)
		}
		return names
	}
	if got := tagNames(reflect.TypeFor[ClassifyBatchRequest]()); !slices.Equal(got, []string{"headers"}) {
		t.Errorf("ClassifyBatchRequest's JSON names are %q; the decoder knows only \"headers\"", got)
	}
	if got := tagNames(reflect.TypeFor[WireHeader]()); !slices.Equal(got, headerKeys) {
		t.Errorf("WireHeader's JSON names are %q, headerKeys %q", got, headerKeys)
	}

	// Every field distinct and non-zero, so a key routed to the wrong field
	// or dropped shows.
	var want WireHeader
	v := reflect.ValueOf(&want).Elem()
	for i := range v.NumField() {
		switch f := v.Field(i); f.Kind() {
		case reflect.String:
			f.SetString(fmt.Sprintf("field %d", i))
		default:
			f.SetUint(uint64(i + 1))
		}
	}
	body, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	s := &scanner{buf: body}
	if got := s.header(); s.err != nil || got != want {
		t.Errorf("scanning %s = %+v (err %v), want %+v", body, got, s.err, want)
	}
}

// TestAppendScalarsMatchEncodingJSON holds the response encoder's scalars
// to encoding/json where the fuzz target cannot reach them through a
// response: floats in exponent format, and every action name, which the
// encoder writes unescaped.
func TestAppendScalarsMatchEncodingJSON(t *testing.T) {
	for _, f := range []float64{0, 1, 0.5, 1.0 / 3, 2.25, 1e-6, 9.99e-7, 1.5e-9, 1e-300, 5e-324,
		1e20, 1e21, 123456789.125, 1e300, math.MaxFloat64, -2e-7, -0.75} {
		want, _ := json.Marshal(f)
		if got := appendFloat(nil, f); string(got) != string(want) {
			t.Errorf("appendFloat(%v) = %s, encoding/json writes %s", f, got, want)
		}
	}
	for a := range 256 {
		name := sdnpc.Action(a).String()
		if want, _ := json.Marshal(name); string(want) != `"`+name+`"` {
			t.Errorf("action name %q needs escaping (%s); the encoder writes it raw", name, want)
		}
	}
}
