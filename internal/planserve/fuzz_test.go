package planserve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"nestwrf/internal/nest"
)

// FuzzPlanRequestKey drives arbitrary bytes through the request-to-key
// path: serveQuery's decodePlanRequest and options, appendRequestKey,
// and what a miss adds, the domain tree. It stops before planning, so
// no input can make it run long. Nothing may panic, and every request
// that resolves has a request key equal to appendKey over its resolved
// options and tree, deterministic, blind to domain names and sensitive
// to sibling order.
func FuzzPlanRequestKey(f *testing.F) {
	for _, body := range keySeeds() {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var req PlanRequest
		if decodePlanRequest(nil, bytes.NewReader(body), &req) != nil {
			return
		}
		opt, cfg, err := resolveRequest(&req)
		if err != nil {
			return
		}
		key := appendKey(nil, queryPlan.prefix, opt, cfg)
		if reqKey := appendRequestKey(nil, queryPlan.prefix, opt, &req.Domain); !bytes.Equal(reqKey, key) {
			t.Fatalf("request key differs from the resolved request's key:\n%s\n%s", reqKey, key)
		}
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

// FuzzPlanRequestKeyPair is the invariant a hit served before its tree
// is built rests on: two requests with equal request keys either both
// resolve — to equal options and equal name-free geometry — or both
// fail to. Its seeds pair requests that share a key (renamed nests, a
// machine's other spelling, root offsets nest.Root ignores) or nearly
// do.
func FuzzPlanRequestKeyPair(f *testing.F) {
	valid := testRequest("concurrent", "predicted", "multilevel")
	for _, b := range []string{
		valid,
		renameNests(valid, "h1", "h2"),
		strings.Replace(valid, `"bgl"`, `"BlueGene/L"`, 1),
		strings.Replace(valid, `"nx": 286,`, `"nx": 286, "ratio": 3, "off_x": 7,`, 1),
		strings.Replace(valid, `"nx": 286,`, `"nx": 286, "ratio": -1,`, 1),
		strings.Replace(valid, `"off_x": 140`, `"off_x": 1400`, 1),
		siblingsBA,
	} {
		f.Add([]byte(valid), []byte(b))
	}
	f.Add([]byte(siblingsAB), []byte(siblingsBA))

	f.Fuzz(func(t *testing.T, a, b []byte) {
		var ra, rb PlanRequest
		if decodePlanRequest(nil, bytes.NewReader(a), &ra) != nil || decodePlanRequest(nil, bytes.NewReader(b), &rb) != nil {
			return
		}
		optA, errA := ra.options()
		optB, errB := rb.options()
		if errA != nil || errB != nil {
			return
		}
		ka := appendRequestKey(nil, queryPlan.prefix, optA, &ra.Domain)
		if !bytes.Equal(ka, appendRequestKey(nil, queryPlan.prefix, optB, &rb.Domain)) {
			return
		}
		cfgA, errA := ra.Domain.build()
		cfgB, errB := rb.Domain.build()
		if (errA == nil) != (errB == nil) {
			t.Fatalf("equal keys %s, but one tree is valid and one not: %v / %v", ka, errA, errB)
		}
		if errA != nil {
			return
		}
		if !reflect.DeepEqual(optA, optB) {
			t.Fatalf("equal keys %s, different options:\n%+v\n%+v", ka, optA, optB)
		}
		if !sameGeometry(cfgA, cfgB) {
			t.Fatalf("equal keys %s, different geometry", ka)
		}
	})
}

// maxFuzzRanks bounds the rank count FuzzPlanHandler plans for, so
// every input plans in milliseconds.
const maxFuzzRanks = 4096

// FuzzPlanHandler serves every body on /v1/plan and /v1/compare twice:
// on a server warmed with the seed corpus, where it may hit an entry
// before its domain tree is built, and on a fresh server, where it is
// planned cold. Status and body must agree, no response may be a 5xx,
// and nothing may panic. Bodies asking for more than maxFuzzRanks ranks
// are skipped.
func FuzzPlanHandler(f *testing.F) {
	paths := []string{"/v1/plan", "/v1/compare"}
	serve := func(h http.Handler, path string, body []byte) (int, []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", path, bytes.NewReader(body)))
		return rec.Code, rec.Body.Bytes()
	}
	warm := New(Config{})
	f.Cleanup(warm.Close)
	for _, body := range keySeeds() {
		f.Add([]byte(body))
		for _, path := range paths {
			serve(warm.Handler(), path, []byte(body))
		}
	}
	f.Add([]byte(renameNests(testRequest("concurrent", "predicted", "multilevel"), "h1", "h2")))
	f.Add([]byte(strings.Replace(testRequestBench(), `"bgl"`, `"BlueGene/L"`, 1)))

	f.Fuzz(func(t *testing.T, body []byte) {
		var req PlanRequest
		if decodePlanRequest(nil, bytes.NewReader(body), &req) == nil && req.Ranks > maxFuzzRanks {
			return
		}
		cold := New(Config{})
		defer cold.Close()
		for _, path := range paths {
			code, got := serve(warm.Handler(), path, body)
			wantCode, want := serve(cold.Handler(), path, body)
			if code >= 500 || wantCode >= 500 {
				t.Fatalf("%s: status %d warm, %d cold: %s", path, code, wantCode, got)
			}
			if code != wantCode || !bytes.Equal(got, want) {
				t.Fatalf("%s: warm server %d\n%s\ncold server %d\n%s\nbody %q", path, code, got, wantCode, want, body)
			}
		}
	})
}

// FuzzPlanBatch is FuzzPlanHandler for /v1/plan/batch: every body goes
// to a server warmed with the seed corpus and to a fresh one. Status
// and each item's plan and error must agree (the items' cache outcomes
// may not), no response may be a 5xx, and nothing may panic. Bodies
// with an item asking for more than maxFuzzRanks ranks are skipped.
func FuzzPlanBatch(f *testing.F) {
	serve := func(h http.Handler, body []byte) (int, []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/plan/batch", bytes.NewReader(body)))
		return rec.Code, rec.Body.Bytes()
	}
	warm := New(Config{})
	f.Cleanup(warm.Close)
	seeds := keySeeds()
	for _, body := range seeds {
		f.Add([]byte(`{"requests":[` + body + `]}`))
	}
	f.Add([]byte(`{"requests":[` + strings.Join(seeds[:4], ",") + `,` + seeds[0] + `]}`))
	f.Add([]byte(`{"requests":[` + renameNests(seeds[0], "h1", "h2") + `,` + badRequests[0].body + `]}`))
	f.Add([]byte(`{"requests":[]}`))
	for _, body := range seeds {
		serve(warm.Handler(), []byte(`{"requests":[`+body+`]}`))
	}

	f.Fuzz(func(t *testing.T, body []byte) {
		var req BatchRequest
		if json.NewDecoder(bytes.NewReader(body)).Decode(&req) == nil {
			for _, item := range req.Requests {
				if item.Ranks > maxFuzzRanks {
					return
				}
			}
		}
		cold := New(Config{})
		defer cold.Close()
		code, got := serve(warm.Handler(), body)
		wantCode, want := serve(cold.Handler(), body)
		if code >= 500 || wantCode >= 500 {
			t.Fatalf("status %d warm, %d cold: %s", code, wantCode, got)
		}
		if code == http.StatusOK && wantCode == http.StatusOK {
			got, want = withoutCache(t, got), withoutCache(t, want)
		}
		if code != wantCode || !bytes.Equal(got, want) {
			t.Fatalf("warm server %d\n%s\ncold server %d\n%s\nbody %q", code, got, wantCode, want, body)
		}
	})
}

// withoutCache re-encodes a batch response with every item's cache
// outcome blanked.
func withoutCache(t *testing.T, body []byte) []byte {
	var resp BatchResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("batch response does not decode: %v: %s", err, body)
	}
	for i := range resp.Responses {
		resp.Responses[i].Cache = ""
	}
	out, err := json.Marshal(&resp)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// keySeeds are FuzzPlanRequestKey's corpus: every option combination,
// sibling orders, and the rejected requests.
func keySeeds() []string {
	var seeds []string
	for _, st := range []string{"sequential", "concurrent"} {
		for _, al := range []string{"predicted", "naive-points", "equal", "strips-predicted"} {
			for _, mp := range []string{"oblivious", "txyz", "partition", "multilevel"} {
				seeds = append(seeds, testRequest(st, al, mp))
			}
		}
	}
	seeds = append(seeds, siblingsAB, siblingsBA)
	for _, c := range badRequests {
		seeds = append(seeds, c.body)
	}
	return append(seeds, `{"machine":"bgp","ranks":64,"strategy":"sequential","mapping":"oblivious","domain":{"nx":96,"ny":96}}`)
}

// sameGeometry reports whether two trees agree on everything but
// names.
func sameGeometry(a, b *nest.Domain) bool {
	if a.NX != b.NX || a.NY != b.NY || a.Ratio != b.Ratio || a.OffX != b.OffX || a.OffY != b.OffY ||
		len(a.Children) != len(b.Children) {
		return false
	}
	for i := range a.Children {
		if !sameGeometry(a.Children[i], b.Children[i]) {
			return false
		}
	}
	return true
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

// FuzzLoadSnapshot feeds arbitrary bytes to LoadSnapshot as a snapshot
// file. Nothing may panic; a file-level error loads nothing; otherwise
// the cache holds exactly the loaded entries, the warm counters match
// what LoadSnapshot returned, and every resident key re-renders byte
// for byte from the request it names. The seeds are a real snapshot
// with plan, compare and run keys, truncations of it, and copies whose
// plan key asks for 1<<21 ranks, strategy 9 or a nest larger than its
// parent.
func FuzzLoadSnapshot(f *testing.F) {
	path := filepath.Join(f.TempDir(), "plans.snap")
	srv := New(Config{})
	h := srv.Handler()
	serve := func(path, body string) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", path, strings.NewReader(body)))
		if rec.Code != http.StatusOK {
			f.Fatalf("%s: status %d: %s", path, rec.Code, rec.Body)
		}
	}
	serve("/v1/plan", testRequest("concurrent", "predicted", "multilevel"))
	serve("/v1/compare", testRequest("concurrent", "predicted", "partition"))
	if _, _, err := srv.plans.Run(context.Background(), cacheCfg(), cacheOpt()); err != nil {
		f.Fatal(err)
	}
	if saved, err := srv.SaveSnapshot(path); err != nil || saved != 3 {
		f.Fatalf("saved %d keys (%v), want 3", saved, err)
	}
	srv.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data)
	for _, n := range []int{0, 1, len(data) / 3, len(data) / 2, len(data) - 2} {
		f.Add(data[:n])
	}
	for _, doctor := range [][2]string{
		{"|r=64|", fmt.Sprintf("|r=%d|", 1<<21)},
		{"|s=1|", "|s=9|"},
		{"(394,", "(3940,"},
	} {
		var snap snapshotFile
		if err := json.Unmarshal(data, &snap); err != nil {
			f.Fatal(err)
		}
		for i, key := range snap.Keys {
			if strings.HasPrefix(key, queryPlan.prefix) {
				snap.Keys[i] = strings.Replace(key, doctor[0], doctor[1], 1)
			}
		}
		doctored, err := json.Marshal(&snap)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(doctored)
	}

	// A worker process runs the target sequentially, so it rewrites one
	// file instead of paying for a directory per input.
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		p := NewPlanCache(8)
		defer p.Close()
		loaded, rejected, err := p.LoadSnapshot(path)
		if resident := p.ll.Len(); err != nil && resident != 0 {
			t.Fatalf("LoadSnapshot failed (%v) but left %d entries", err, resident)
		} else if err == nil && resident != loaded {
			t.Fatalf("LoadSnapshot loaded %d entries, cache holds %d", loaded, resident)
		}
		if l, r, _ := p.WarmStats(); l != uint64(loaded) || r != uint64(rejected) {
			t.Fatalf("warm stats loaded %d rejected %d, LoadSnapshot returned %d/%d", l, r, loaded, rejected)
		}
		for el := p.ll.Front(); el != nil; el = el.Next() {
			key := el.Value.(*lruEntry).key
			q, cfg, opt, _ := requestOf(key)
			if cfg == nil || string(appendKey(nil, q.prefix, opt, cfg)) != key {
				t.Fatalf("resident key %q does not re-render", key)
			}
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
