package planserve

import (
	"bytes"
	"context"
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

// TestKeyCoversEveryField is the key's completeness check: every leaf
// field of driver.Options and nest.Domain is either keyed — each change
// to it changes appendKey's bytes — or listed as excluded with a
// reason, and then changing it leaves the bytes alone. A field added to
// either type without a decision fails here.
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
		if _, _, out, err := pc.lookup(ctx, queryRun, cfg, opt, miss); err != nil || out != outcomeHit {
			t.Fatalf("lookup = %v, %v; want a hit", out, err)
		}
	})
	if allocs != 0 {
		t.Errorf("resident-hit lookup allocates %v times, want 0", allocs)
	}
}
