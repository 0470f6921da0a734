package planserve

import (
	"bytes"
	"encoding/json"
	"testing"

	"nestwrf/internal/nest"
)

// FuzzPlanRequestKey drives arbitrary bytes through the request-to-key
// path: a strict JSON decode into PlanRequest as serveQuery does it,
// resolve, appendKey. It stops before planning, so no input can make
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
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		if dec.Decode(&req) != nil {
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
