package planserve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"nestwrf/internal/driver"
	"nestwrf/internal/nest"
)

// keyedOptions are the leaves of driver.Options — through the machine
// and its network and I/O parameters — that decide a plan, so the key
// must change whenever any of them does.
var keyedOptions = []string{
	"Machine.Name", "Machine.ClockHz", "Machine.CoresPerNode", "Machine.Modes",
	"Machine.PointCost", "Machine.StepOverhead", "Machine.ExchangesPerStep",
	"Machine.BytesPerPoint",
	"Machine.Net.LatencyPerHop", "Machine.Net.Overhead", "Machine.Net.Bandwidth",
	"Machine.IO.BaseLatency", "Machine.IO.PerWriterOverhead",
	"Machine.IO.AggregateBandwidth", "Machine.IO.PerProcessBandwidth",
	"Ranks", "Strategy", "MapKind", "Alloc", "IOMode", "OutputEverySteps",
	"NoContention",
}

// unkeyedOptions are the leaves the key leaves out on purpose, each
// with the reason; changing one must not change the key.
var unkeyedOptions = map[string]string{
	"Metrics":     "an observability sink: results are the same without it",
	"Tracer":      "an observability sink: results are the same without it",
	"TraceParent": "span linkage for the trace: results are the same without it",
}

// keyedDomain and unkeyedDomain split the fields of nest.Domain the
// same way; both are checked at the root and at a first-level child.
var (
	keyedDomain   = []string{"NX", "NY", "Ratio", "OffX", "OffY", "Children"}
	unkeyedDomain = map[string]string{
		"Name": "renaming a region does not change its plan; responses re-attach the caller's names",
	}
)

// specChange is one change to a leaf of PlanRequest or DomainSpec. why
// is empty when the change must change the request key, else the
// reason it must not.
type specChange struct {
	path  string
	value any
	why   string
}

// requestChanges decide every leaf of PlanRequest, the root domain's
// included; childChanges every leaf of a first-level DomainSpec. Each
// change leaves a valid request.
var (
	rootIgnored    = "nest.Root ignores the root's ratio and offsets"
	requestChanges = []specChange{
		{"Machine", "bgp", ""},
		{"Machine", "BGL", "machine.Parse folds the spelling's case"},
		{"Ranks", 128, ""},
		{"Strategy", "sequential", ""},
		{"Alloc", "equal", ""},
		{"Mapping", "oblivious", ""},
		{"IO", "split", ""},
		{"OutputEvery", 10, ""},
		{"NoContention", true, ""},
		{"Domain.Name", "atlantic", "renaming a region does not change its plan; responses re-attach the caller's names"},
		{"Domain.NX", 287, ""},
		{"Domain.NY", 308, ""},
		{"Domain.Ratio", 3, rootIgnored},
		{"Domain.OffX", 7, rootIgnored},
		{"Domain.OffY", 7, rootIgnored},
		{"Domain.Children", []DomainSpec{{NX: 30, NY: 30, Ratio: 3}}, ""},
	}
	childChanges = []specChange{
		{"Name", "t9", "renaming a region does not change its plan; responses re-attach the caller's names"},
		{"NX", 395, ""},
		{"NY", 419, ""},
		{"Ratio", 4, ""},
		{"OffX", 6, ""},
		{"OffY", 6, ""},
		{"Children", []DomainSpec{{NX: 3, NY: 3, Ratio: 1}}, ""},
	}
)

// TestKeyCoversEveryField is the key's completeness check: every leaf
// field of driver.Options and nest.Domain is either keyed — each change
// to it changes appendKey's bytes — or listed as excluded with a
// reason, and then changing it leaves the bytes alone. A field added to
// either type without a decision fails here. The same holds for the
// request key over the leaves of PlanRequest and DomainSpec, which
// must also equal appendKey over the resolved request.
func TestKeyCoversEveryField(t *testing.T) {
	baseOpt := cacheOpt
	key := func(opt driver.Options, cfg *nest.Domain) []byte {
		return appendKey(nil, "plan|", opt, cfg)
	}
	ref := key(baseOpt(), cacheCfg())

	checkLists(t, "driver.Options", reflect.TypeOf(driver.Options{}), keyedOptions, unkeyedOptions)
	checkLists(t, "nest.Domain", reflect.TypeOf(nest.Domain{}), keyedDomain, unkeyedDomain)

	checkPaths(t, "Options", ref, keyedOptions, unkeyedOptions, func() (reflect.Value, func() []byte) {
		opt := baseOpt()
		return reflect.ValueOf(&opt).Elem(), func() []byte { return key(opt, cacheCfg()) }
	})
	checkPaths(t, "root Domain", ref, keyedDomain, unkeyedDomain, func() (reflect.Value, func() []byte) {
		cfg := cacheCfg()
		return reflect.ValueOf(cfg).Elem(), func() []byte { return key(baseOpt(), cfg) }
	})
	checkPaths(t, "child Domain", ref, keyedDomain, unkeyedDomain, func() (reflect.Value, func() []byte) {
		cfg := cacheCfg()
		return reflect.ValueOf(cfg.Children[0]).Elem(), func() []byte { return key(baseOpt(), cfg) }
	})

	base := func() *PlanRequest {
		var req PlanRequest
		if err := json.Unmarshal([]byte(testRequest("concurrent", "predicted", "multilevel")), &req); err != nil {
			t.Fatal(err)
		}
		return &req
	}
	reqRef := requestKey(t, "base request", base())
	checkChanges(t, "PlanRequest", reflect.TypeOf(PlanRequest{}), reqRef, requestChanges, func() (reflect.Value, *PlanRequest) {
		req := base()
		return reflect.ValueOf(req).Elem(), req
	})
	checkChanges(t, "child DomainSpec", reflect.TypeOf(DomainSpec{}), reqRef, childChanges, func() (reflect.Value, *PlanRequest) {
		req := base()
		return reflect.ValueOf(&req.Domain.Children[0]).Elem(), req
	})
}

// checkChanges fails on a leaf of typ no change names, on a change to
// a path that is not a leaf, and on a change whose request key does
// not differ from ref (keyed) or does (excluded).
func checkChanges(t *testing.T, name string, typ reflect.Type, ref []byte, changes []specChange, fresh func() (reflect.Value, *PlanRequest)) {
	t.Helper()
	decided := map[string]bool{}
	for _, c := range changes {
		decided[c.path] = true
	}
	for _, leaf := range leaves(typ, "") {
		if !decided[leaf] {
			t.Errorf("%s.%s is neither keyed nor excluded with a reason", name, leaf)
		}
		delete(decided, leaf)
	}
	for p := range decided {
		t.Errorf("%s has no leaf %s", name, p)
	}
	for _, c := range changes {
		v, req := fresh()
		fieldAt(v, c.path).Set(reflect.ValueOf(c.value))
		label := fmt.Sprintf("%s.%s = %v", name, c.path, c.value)
		switch changed := !bytes.Equal(requestKey(t, label, req), ref); {
		case c.why == "" && !changed:
			t.Errorf("%s does not change the request key", label)
		case c.why != "" && changed:
			t.Errorf("excluded %s changes the request key", label)
		}
	}
}

// requestKey returns req's request key after checking that req
// resolves and that the key is appendKey's over what it resolves to.
func requestKey(t *testing.T, label string, req *PlanRequest) []byte {
	t.Helper()
	opt, cfg, err := resolveRequest(req)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	key := appendRequestKey(nil, queryPlan.prefix, opt, &req.Domain)
	if want := appendKey(nil, queryPlan.prefix, opt, cfg); !bytes.Equal(key, want) {
		t.Errorf("%s: request key\n%s\nresolved key\n%s", label, key, want)
	}
	return key
}

// resolveRequest is what a miss makes of a decoded request: its
// options, then its validated domain tree.
func resolveRequest(req *PlanRequest) (driver.Options, *nest.Domain, error) {
	opt, err := req.options()
	if err != nil {
		return opt, nil, err
	}
	cfg, err := req.Domain.build()
	return opt, cfg, err
}

// checkPaths changes each listed field of a fresh value — every change
// mutate knows for a keyed field, one for an excluded one — and
// compares the resulting key with ref.
func checkPaths(t *testing.T, label string, ref []byte, keyed []string, unkeyed map[string]string, fresh func() (reflect.Value, func() []byte)) {
	t.Helper()
	for _, path := range keyed {
		for k := 0; ; k++ {
			v, key := fresh()
			if !mutate(t, fieldAt(v, path), k) {
				break
			}
			if bytes.Equal(key(), ref) {
				t.Errorf("%s.%s (change %d) does not change the key", label, path, k)
			}
		}
	}
	for path := range unkeyed {
		v, key := fresh()
		mutate(t, fieldAt(v, path), 0)
		if !bytes.Equal(key(), ref) {
			t.Errorf("excluded %s.%s changes the key", label, path)
		}
	}
}

// checkLists fails on a leaf of typ in neither list and on a listed
// path that is not a leaf of typ.
func checkLists(t *testing.T, name string, typ reflect.Type, keyed []string, unkeyed map[string]string) {
	t.Helper()
	listed := map[string]bool{}
	for _, p := range keyed {
		listed[p] = true
	}
	for p := range unkeyed {
		listed[p] = true
	}
	for _, leaf := range leaves(typ, "") {
		if !listed[leaf] {
			t.Errorf("%s.%s is neither keyed nor excluded with a reason", name, leaf)
		}
		delete(listed, leaf)
	}
	for p := range listed {
		t.Errorf("%s has no leaf %s", name, p)
	}
}

// leaves lists the dotted paths of typ's leaf fields, descending into
// nested structs but not through pointers or slices.
func leaves(typ reflect.Type, prefix string) []string {
	var out []string
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if f.Type.Kind() == reflect.Struct {
			out = append(out, leaves(f.Type, prefix+f.Name+".")...)
			continue
		}
		out = append(out, prefix+f.Name)
	}
	return out
}

// fieldAt resolves a dotted path below v.
func fieldAt(v reflect.Value, path string) reflect.Value {
	for _, name := range strings.Split(path, ".") {
		v = v.FieldByName(name)
	}
	return v
}

// mutate applies the k-th change for v's kind and reports whether
// there was one: scalars have one change, slices two (append an
// element; change the first).
func mutate(t *testing.T, v reflect.Value, k int) bool {
	t.Helper()
	if v.Kind() == reflect.Slice {
		switch {
		case k == 0:
			grown := reflect.MakeSlice(v.Type(), v.Len()+1, v.Len()+1)
			reflect.Copy(grown, v)
			if last := grown.Index(v.Len()); last.Kind() == reflect.Pointer {
				last.Set(reflect.New(last.Type().Elem()))
			}
			v.Set(grown)
			return true
		case k == 1 && v.Len() > 0:
			return mutate(t, v.Index(0), 0)
		}
		return false
	}
	if k > 0 {
		return false
	}
	switch v.Kind() {
	case reflect.Int, reflect.Int64:
		v.SetInt(v.Int() + 1)
	case reflect.Uint64:
		v.SetUint(v.Uint() + 1)
	case reflect.Float64:
		v.SetFloat(v.Float()*2 + 1)
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.String:
		v.SetString(v.String() + "x")
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem())) // a fresh zero value
	default:
		t.Fatalf("no mutation for a %s field: teach mutate its kind", v.Kind())
	}
	return true
}

// TestLookupHitKeyAllocs: building the key of a resident entry and
// finding it allocates nothing — the key lives in a stack buffer and
// the map lookup converts it without copying.
func TestLookupHitKeyAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	pc := NewPlanCache(4)
	ctx := context.Background()
	cfg, opt := cacheCfg(), cacheOpt()
	if _, _, err := pc.Run(ctx, cfg, opt); err != nil {
		t.Fatal(err)
	}
	miss := func(driver.Options) (any, error) {
		t.Fatal("resident entry missed")
		return nil, nil
	}
	allocs := testing.AllocsPerRun(100, func() {
		var buf [keyBuf]byte
		if _, out, err := pc.lookup(ctx, nil, appendKey(buf[:0], queryRun.prefix, opt, cfg), opt, miss); err != nil || out != outcomeHit {
			t.Fatalf("lookup = %v, %v; want a hit", out, err)
		}
	})
	if allocs != 0 {
		t.Errorf("resident-hit lookup allocates %v times, want 0", allocs)
	}
}
