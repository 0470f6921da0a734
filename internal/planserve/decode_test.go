package planserve

import (
	"strings"
	"testing"
)

// TestParseRequestSubset pins which bodies the hand decoder takes and
// which it leaves to encoding/json (FuzzDecodePlanRequest checks that
// both give the same answer): every request the tests and the benchmark
// send is hand-decoded, and each construct outside the subset falls
// back.
func TestParseRequestSubset(t *testing.T) {
	valid := testRequest("concurrent", "predicted", "multilevel")
	for _, c := range []struct {
		body string
		hand bool
	}{
		{valid, true},
		{testRequestBench(), true},
		{siblingsAB, true},
		{`{"machine":"bgp","ranks":-0,"io":"split","output_every":3,"no_contention":false,"domain":{"nx":1,"ny":1,"children":[]}}`, true},
		{" \t\r\n" + valid + "\n ", true},
		{strings.Replace(valid, `"machine"`, `"Machine"`, 1), false},
		{strings.Replace(valid, `"ranks": 64`, `"ranks": 64, "ranks": 64`, 1), false},
		{strings.Replace(valid, `"ranks": 64`, `"ranks": 64.0`, 1), false},
		{strings.Replace(valid, `"ranks": 64`, `"ranks": 1e2`, 1), false},
		{strings.Replace(valid, `"ranks": 64`, `"ranks": 0123`, 1), false},
		{strings.Replace(valid, `"ranks": 64`, `"ranks": 1234567890123456789`, 1), false},
		{strings.Replace(valid, `"strategy": "concurrent"`, `"strategy": null`, 1), false},
		{strings.Replace(valid, `"t1"`, `"t\u0031"`, 1), false},
		{strings.Replace(valid, `"t1"`, `"täifun"`, 1), false},
		{strings.Replace(valid, `"ranks": 64`, `"ranks": 64, "bogus": 1`, 1), false},
		{valid + "x", false},
		{`{"domain":` + strings.Repeat(`{"children":[`, maxParseDepth) + `{}` + strings.Repeat(`]}`, maxParseDepth) + `}`, false},
		{``, false},
		{`null`, false},
	} {
		var req PlanRequest
		if got := parseRequest([]byte(c.body), &req); got != c.hand {
			t.Errorf("parseRequest = %v, want %v: %s", got, c.hand, c.body)
		}
	}
}
