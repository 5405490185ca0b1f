package server

import (
	"encoding/json"
	"errors"
	"net/url"
	"reflect"
	"testing"
)

// FuzzParseMembership feeds arbitrary bytes to the membership-document
// parser (the body of POST /v1/fleet/membership and of a peer sync). It
// must never panic, and every document it accepts must pass Validate
// and come back unchanged through a JSON round trip.
func FuzzParseMembership(f *testing.F) {
	for _, seed := range []string{
		`{"epoch":3,"members":[{"id":"a","url":"http://replica-a:8080"},{"id":"b","url":"https://replica-b/"}]}`,
		`{"epoch":0,"members":[{"id":"solo"}]}`,
		`{"epoch":1,"members":[{"id":"a","url":"http://x"},{"id":"a","url":"http://y"}]}`,
		`{"epoch":1,"members":[{"id":"a","url":"ftp://x"}]}`,
		`{"epoch":-1,"members":[]}`,
		`{"members":null}`,
		`[]`,
		``,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		m, err := ParseMembership(b)
		if err != nil {
			return
		}
		if err := m.Validate(); err != nil {
			t.Fatalf("accepted document fails Validate: %v", err)
		}
		enc, err := json.Marshal(m)
		if err != nil {
			t.Fatalf("accepted document does not encode: %v", err)
		}
		back, err := ParseMembership(enc)
		if err != nil {
			t.Fatalf("round trip rejected %s: %v", enc, err)
		}
		if !reflect.DeepEqual(back, m) {
			t.Fatalf("round trip changed the document: %+v -> %+v", m, back)
		}
	})
}

// FuzzParseArcQuery drives the arc pipeline's parse stage for all three
// arc endpoints (cdf, binning, GET yield) with arbitrary query strings.
// It must never panic, every rejection must be a 4xx *httpError, and
// every acceptance must come with an answer step.
func FuzzParseArcQuery(f *testing.F) {
	for _, seed := range []string{
		"lib=testlib&cell=INV&slew=0.02&load=0.004&n=33",
		"lib=testlib&cell=INV&points=0.01,0.2&kind=norm2",
		"lib=testlib&cell=NAND2&from=A2&out=ZN&base=rise_transition&prices=0,1,2,3,4,5,6,7",
		"lib=testlib&cell=INV&sigma=4&estimator=mnis&ci=0.05",
		"lib=testlib&cell=INV&clock=10&estimator=ais",
		"lib=testlib&cell=INV&n=1&prices=1,2&sigma=9",
		"lib=testlib&cell=INV&points=,&slew=NaN&kind=LVF",
		"lib=&cell=%zz&n=4097",
		"",
	} {
		f.Add(seed)
	}
	s := New(Config{})
	parsers := map[string]arcParser{"cdf": parseCDF, "binning": parseBinning, "yield": s.parseArcYield}
	f.Fuzz(func(t *testing.T, raw string) {
		q, _ := url.ParseQuery(raw) // what r.URL.Query() sees
		for name, parse := range parsers {
			_, answer, err := parseArc(q, parse)
			if err == nil {
				if answer == nil {
					t.Fatalf("%s: accepted %q without an answer step", name, raw)
				}
				continue
			}
			var he *httpError
			if !errors.As(err, &he) || he.code < 400 || he.code > 499 {
				t.Fatalf("%s: %q rejected with %v, want a 4xx *httpError", name, raw, err)
			}
		}
	})
}
