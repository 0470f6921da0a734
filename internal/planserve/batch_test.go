package planserve

import (
	"encoding/json"
	"net/http"
	"reflect"
	"testing"
)

// batchBody builds a /v1/plan/batch body from plan-request bodies.
func batchBody(reqs ...string) string {
	return `{"requests":[` + join(reqs, ",") + `]}`
}

func join(ss []string, sep string) string {
	out := ""
	for i, s := range ss {
		if i > 0 {
			out += sep
		}
		out += s
	}
	return out
}

// TestBatchEndpoint: a batch's items must round-trip in request order,
// each byte-equivalent to what the single /v1/plan endpoint returns,
// with duplicate items sharing one computation and a second call
// hitting the cache throughout.
func TestBatchEndpoint(t *testing.T) {
	srv := New(Config{})
	defer srv.Close()
	h := srv.Handler()

	a := testRequest("concurrent", "predicted", "multilevel")
	b := testRequest("sequential", "equal", "txyz")
	code, _, raw := post(t, h, "/v1/plan/batch", batchBody(a, a, b))
	if code != http.StatusOK {
		t.Fatalf("batch status %d: %s", code, raw)
	}
	var resp BatchResponse
	if err := json.Unmarshal(raw, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Responses) != 3 {
		t.Fatalf("got %d responses, want 3", len(resp.Responses))
	}
	for i, item := range resp.Responses {
		if item.Error != "" || item.Plan == nil {
			t.Fatalf("item %d: error %q, plan %v", i, item.Error, item.Plan)
		}
	}
	if !reflect.DeepEqual(resp.Responses[0].Plan, resp.Responses[1].Plan) {
		t.Error("duplicate items returned different plans")
	}

	// Each item must match the single endpoint's body for the same
	// query (which is a cache hit now, hence byte-identical to cold).
	for i, body := range []string{a, b} {
		code, cacheHdr, single := post(t, h, "/v1/plan", body)
		if code != http.StatusOK || cacheHdr != "hit" {
			t.Fatalf("single query %d: status %d cache %q", i, code, cacheHdr)
		}
		var want PlanResponse
		if err := json.Unmarshal(single, &want); err != nil {
			t.Fatal(err)
		}
		got := resp.Responses[2*i] // items 0 and 2
		if !reflect.DeepEqual(&want, got.Plan) {
			t.Errorf("batch item %d differs from single endpoint response", 2*i)
		}
	}

	// Second batch: everything resident.
	code, _, raw = post(t, h, "/v1/plan/batch", batchBody(a, b))
	if code != http.StatusOK {
		t.Fatalf("second batch status %d", code)
	}
	resp = BatchResponse{}
	if err := json.Unmarshal(raw, &resp); err != nil {
		t.Fatal(err)
	}
	for i, item := range resp.Responses {
		if item.Cache != "hit" {
			t.Errorf("second batch item %d: cache %q, want hit", i, item.Cache)
		}
	}
}

// TestBatchEndpointErrors: item-level failures are inline; an empty
// batch is a request-level 400.
func TestBatchEndpointErrors(t *testing.T) {
	srv := New(Config{})
	defer srv.Close()
	h := srv.Handler()

	bad := `{"machine":"cray","ranks":64,"domain":{"nx":64,"ny":64}}`
	good := testRequest("concurrent", "predicted", "oblivious")
	code, _, raw := post(t, h, "/v1/plan/batch", batchBody(bad, good))
	if code != http.StatusOK {
		t.Fatalf("batch status %d: %s", code, raw)
	}
	var resp BatchResponse
	if err := json.Unmarshal(raw, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Responses[0].Error == "" || resp.Responses[0].Plan != nil {
		t.Errorf("bad item should fail inline: %+v", resp.Responses[0])
	}
	if resp.Responses[1].Error != "" || resp.Responses[1].Plan == nil {
		t.Errorf("good item should succeed: %+v", resp.Responses[1])
	}

	if code, _, _ := post(t, h, "/v1/plan/batch", `{"requests":[]}`); code != http.StatusBadRequest {
		t.Errorf("empty batch: status %d, want 400", code)
	}
}
