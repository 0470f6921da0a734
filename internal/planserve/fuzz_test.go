package planserve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"reflect"
	"strings"
	"testing"

	"nestwrf/internal/nest"
)

// FuzzPlanRequestKey drives arbitrary bytes through the request-to-key
// path: serveQuery's decodePlanRequest, resolve, appendKey. It stops before planning, so no input can make
// it run long. Nothing may panic, and every request that resolves has a
// key that is deterministic, blind to domain names and sensitive to
// sibling order.
func FuzzPlanRequestKey(f *testing.F) {
	for _, st := range []string{"sequential", "concurrent"} {
		for _, al := range []string{"predicted", "naive-points", "equal", "strips-predicted"} {
			for _, mp := range []string{"oblivious", "txyz", "partition", "multilevel"} {
				f.Add([]byte(testRequest(st, al, mp)))
			}
		}
	}
	f.Add([]byte(siblingsAB))
	f.Add([]byte(siblingsBA))
	for _, c := range badRequests {
		f.Add([]byte(c.body))
	}
	f.Add([]byte(`{"machine":"bgp","ranks":64,"strategy":"sequential","mapping":"oblivious","domain":{"nx":96,"ny":96}}`))

	f.Fuzz(func(t *testing.T, body []byte) {
		var req PlanRequest
		if decodePlanRequest(nil, bytes.NewReader(body), &req) != nil {
			return
		}
		opt, cfg, err := req.resolve()
		if err != nil {
			return
		}
		key := appendKey(nil, queryPlan.prefix, opt, cfg)
		if again := appendKey(nil, queryPlan.prefix, opt, cfg); !bytes.Equal(key, again) {
			t.Fatalf("key not deterministic:\n%s\n%s", key, again)
		}
		renameAll(cfg)
		if renamed := appendKey(nil, queryPlan.prefix, opt, cfg); !bytes.Equal(key, renamed) {
			t.Fatalf("renaming the domains changed the key:\n%s\n%s", key, renamed)
		}
		if d, i, j := differentSiblings(cfg); d != nil {
			d.Children[i], d.Children[j] = d.Children[j], d.Children[i]
			if swapped := appendKey(nil, queryPlan.prefix, opt, cfg); bytes.Equal(key, swapped) {
				t.Fatalf("swapping siblings %d and %d left the key unchanged: %s", i, j, key)
			}
		}
	})
}

// FuzzDecodePlanRequest holds the hand decoder to encoding/json.
// Whatever parseRequest accepts, json.Decoder with DisallowUnknownFields
// accepts too, with a reflect.DeepEqual value. And decodePlanRequest,
// hand path and fallback alike, returns what serveQuery's decode did
// before it: the same value, or an error with the same text.
func FuzzDecodePlanRequest(f *testing.F) {
	valid := testRequest("concurrent", "predicted", "multilevel")
	for _, s := range []string{
		valid, siblingsAB, testRequestBench(),
		strings.Replace(valid, `"machine"`, `"Machine"`, 1), // json folds case
		strings.Replace(valid, `"ranks": 64`, `"ranks": 64, "ranks": 128`, 1),
		strings.Replace(valid, `"ranks": 64`, `"domain": {"nx": 7}, "ranks": 64`, 1), // json merges objects
		strings.Replace(valid, `"strategy": "concurrent"`, `"strategy": null`, 1),
		strings.Replace(valid, `"ranks": 64`, `"ranks": 64.0`, 1),
		strings.Replace(valid, `"ranks": 64`, `"ranks": 1e2`, 1),
		strings.Replace(valid, `"ranks": 64`, `"ranks": 1000000000000000000000`, 1),
		strings.Replace(valid, `"ranks": 64`, `"ranks": -0`, 1),
		strings.Replace(valid, `"t1"`, `"t11"`, 1),
		strings.Replace(valid, `"t1"`, `"t\n1"`, 1),
		strings.Replace(valid, `"t1"`, `"täifun"`, 1),
		strings.Replace(valid, `"t1"`, `"<t&1>"`, 1),
		valid + "  \n", valid + "{}", valid + "x", " \t" + valid,
		`{"machine":"bgl","ranks":64,"no_contention":true,"domain":{"nx":64,"ny":64,"children":[]}}`,
		`{"machine":"bgl","ranks":64,"no_contention":nul,"domain":{"nx":64,"ny":64}}`,
		`{"machine":"bgl","ranks":64,"domain":{"nx":64,"ny":64,"children":[null]}}`,
		`{}`, `null`, `[]`, ``, `{"domain":{"children":[{"children":[{"children":[{}]}]}]}}`,
		valid + strings.Repeat(" ", maxBodyBytes),
		strings.Replace(valid, `"t1"`, `"`+strings.Repeat("t", maxBodyBytes)+`"`, 1),
	} {
		f.Add([]byte(s))
	}
	for _, c := range badRequests {
		f.Add([]byte(c.body))
	}

	f.Fuzz(func(t *testing.T, body []byte) {
		var want PlanRequest
		dec := json.NewDecoder(http.MaxBytesReader(nil, io.NopCloser(bytes.NewReader(body)), maxBodyBytes))
		dec.DisallowUnknownFields()
		wantErr := dec.Decode(&want)

		var hand PlanRequest
		if parseRequest(body, &hand) {
			var all PlanRequest
			dec := json.NewDecoder(bytes.NewReader(body))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&all); err != nil {
				t.Fatalf("hand decoder accepted what encoding/json rejects (%v): %q", err, body)
			}
			if !reflect.DeepEqual(hand, all) {
				t.Fatalf("hand decoder: %+v\nencoding/json: %+v\nbody: %q", hand, all, body)
			}
		}

		var got PlanRequest
		gotErr := decodePlanRequest(nil, bytes.NewReader(body), &got)
		if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
			t.Fatalf("decodePlanRequest error %v, encoding/json %v: %q", gotErr, wantErr, body)
		}
		if gotErr == nil && !reflect.DeepEqual(got, want) {
			t.Fatalf("decodePlanRequest: %+v\nencoding/json: %+v\nbody: %q", got, want, body)
		}
	})
}

// renameAll gives every domain of the tree a new name.
func renameAll(d *nest.Domain) {
	d.Name += "-renamed"
	for _, c := range d.Children {
		renameAll(c)
	}
}

// differentSiblings finds, depth first, a domain with two children of
// different geometry and returns it with their indices; nil if every
// sibling set is uniform.
func differentSiblings(d *nest.Domain) (*nest.Domain, int, int) {
	if len(d.Children) > 1 {
		first := appendDomainKey(nil, d.Children[0])
		for j, c := range d.Children[1:] {
			if !bytes.Equal(first, appendDomainKey(nil, c)) {
				return d, 0, j + 1
			}
		}
	}
	for _, c := range d.Children {
		if p, i, j := differentSiblings(c); p != nil {
			return p, i, j
		}
	}
	return nil, 0, 0
}
