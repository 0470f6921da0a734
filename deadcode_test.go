package nestwrf

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// testOnlyAllowed lists the package-level functions and methods under
// internal/, and the exported identifiers of the root package, that no
// non-test file references and that stay anyway, each with the reason.
// Anything else TestNoTestOnlyCode finds is dead production code:
// delete it with the tests that exercised only it.
var testOnlyAllowed = map[string]string{
	// Oracles: surviving tests check production code against them.
	"internal/driver.TrainCalls":             "counts trainings: TestCachedPredictorTrainsOnce proves the predictor singleflight",
	"internal/driver.DecodeReport":           "reader of nestwrf/run-report/v1; round-trip oracle of Report.EncodeJSON",
	"internal/driver.DecodeComparisonReport": "reader of nestwrf/compare-report/v1; round-trip oracle of ComparisonReport.EncodeJSON",
	"internal/geom.Triangulation.Validate":   "empty-circumcircle and adjacency invariants after every Delaunay construction",
	"internal/mapping.Mapping.Validate":      "bijection onto the torus, checked for every mapping constructor",
	"internal/solver.RunSerial":              "single-tile run the decomposed runs must match bit for bit",
	"internal/solver.Tile.Mass":              "conserved quantity of the mass-conservation tests",
	"internal/torus.Torus.Route":             "readable reference route RouteIndicesInto is compared against",
	"internal/torus.Torus.LinkAt":            "decodes a dense LinkIndex for the netsim reference comparison",
	"internal/torus.Torus.LinkIndexOf":       "inverse of LinkAt; pins RouteIndicesInto to Route link by link",
	"internal/netsim.Network.PathLoad":       "point query the contention tests read link loads through",
	"internal/netsim.Network.TransferTime":   "point query pinned against the map-based reference network",
	"internal/mpi.WaitAll":                   "solver's reference Isend/Irecv exchange completes its requests with it",
	"internal/mpi.Comm.Global":               "rank translation the Split tests check sub-communicators with",
	"internal/mpi.Proc.Phases":               "per-rank phase stats the BeginPhase tests and the reference-pinned snapshots read",
	"internal/telemetry.Tracer.Len":          "span count the MaxSpans, concurrency and driver zero-alloc tests assert on",
	"internal/telemetry.Tracer.Dropped":      "drop count the MaxSpans bound test asserts on",
	"internal/telemetry.DecodeDump":          "reader of the nestwrf/spans/v1 files -spans-out writes; round-trip oracle of Dump.EncodeJSON",
	"internal/iosim.Params.Validate":         "input validation; machine_test holds the shipped BG/L and BG/P I/O models to it",

	// Methods that exist to satisfy an interface.
	"internal/huffman.nodeHeap.Less":    "container/heap.Interface",
	"internal/huffman.nodeHeap.Swap":    "container/heap.Interface",
	"internal/huffman.nodeHeap.Push":    "container/heap.Interface",
	"internal/huffman.nodeHeap.Pop":     "container/heap.Interface",
	"internal/mpi.AlphaBeta.Transfer":   "mpi.TimeModel",
	"internal/mpi.DeadlockError.Error":  "error",
	"internal/mpi.DeadlockError.Unwrap": "errors.Is(err, ErrDeadlock)",
	"internal/geom.Point.String":        "fmt.Stringer",
	"internal/machine.Mode.String":      "fmt.Stringer",
	"internal/nest.Domain.String":       "fmt.Stringer",
	"internal/output.tally.Write":       "io.Writer: output.RecordOf encodes into it",
	"internal/torus.Coord.String":       "fmt.Stringer, printed by Link and route diagnostics",
	"internal/torus.Dim.String":         "fmt.Stringer",
	"internal/vtopo.Direction.String":   "fmt.Stringer",

	// Root facade: members of an enumeration a Parse* function returns,
	// the only public name of an internal field type, and the documented
	// functional-mapping entry point.
	"nestwrf.AllocEqual":           "AllocPolicy value ParseAllocPolicy returns",
	"nestwrf.AllocNaivePoints":     "AllocPolicy value ParseAllocPolicy returns",
	"nestwrf.AllocStripsPredicted": "AllocPolicy value ParseAllocPolicy returns",
	"nestwrf.IOSplit":              "I/O mode ParseIOMode returns",
	"nestwrf.NewTopologyTimeModel": "documented in README; crossval_test.go drives the functional runtime through it",
}

// TestNoTestOnlyCode type-checks every non-test file of the module and
// fails on any package-level function or method under internal/, and
// on any exported package-level identifier of the root package, that no
// non-test file refers to (a reference from inside the identifier's own
// declaration does not count). Such code is reachable only from tests:
// it is either an oracle — then it belongs in testOnlyAllowed with the
// reason — or dead.
func TestNoTestOnlyCode(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the module and the standard library from source")
	}
	fset := token.NewFileSet()
	ld := &loader{
		fset: fset,
		std:  importer.ForCompiler(fset, "source", nil),
		pkgs: map[string]*types.Package{},
		info: &types.Info{
			Defs: map[*ast.Ident]types.Object{},
			Uses: map[*ast.Ident]types.Object{},
		},
	}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
			return filepath.SkipDir
		}
		if src, _ := filepath.Glob(filepath.Join(path, "*.go")); len(src) > 0 {
			if _, err := ld.load(filepath.ToSlash(path)); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// Candidates: top-level funcs and methods declared under internal/,
	// and the root package's exported funcs, types, constants and
	// variables.
	type decl struct {
		name     string
		from, to token.Pos
	}
	decls := map[types.Object]decl{}
	for _, f := range ld.files {
		dir := filepath.ToSlash(filepath.Dir(fset.Position(f.Pos()).Filename))
		if dir == "." {
			for _, d := range f.Decls {
				for id, n := range rootExports(d) {
					decls[ld.info.Defs[id]] = decl{modulePath + "." + id.Name, n.Pos(), n.End()}
				}
			}
			continue
		}
		if !strings.HasPrefix(dir, "internal/") {
			continue
		}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Name.Name == "init" || fd.Name.Name == "_" {
				continue
			}
			name := dir + "."
			if fd.Recv != nil {
				name += recvName(fd.Recv.List[0].Type) + "."
			}
			decls[ld.info.Defs[fd.Name]] = decl{name + fd.Name.Name, fd.Pos(), fd.End()}
		}
	}
	used := map[types.Object]bool{}
	for id, obj := range ld.info.Uses {
		if fn, ok := obj.(*types.Func); ok {
			obj = fn.Origin()
		}
		if d, ok := decls[obj]; ok && (id.Pos() < d.from || id.Pos() >= d.to) {
			used[obj] = true
		}
	}

	var dead []string
	seen := map[string]bool{}
	for obj, d := range decls {
		seen[d.name] = true
		if !used[obj] && testOnlyAllowed[d.name] == "" {
			dead = append(dead, d.name)
		}
	}
	sort.Strings(dead)
	for _, name := range dead {
		t.Errorf("%s is referenced by no non-test file: delete it with its tests, or allowlist it with a reason", name)
	}
	for name := range testOnlyAllowed {
		if !seen[name] {
			t.Errorf("allowlist entry %s names nothing that is declared", name)
		}
	}
	for obj, d := range decls {
		if used[obj] && testOnlyAllowed[d.name] != "" {
			t.Errorf("allowlist entry %s is referenced by production code: drop the entry", d.name)
		}
	}
}

// loader type-checks module packages from their non-test sources, each
// once, into one shared types.Info; the standard library comes from
// the source importer.
type loader struct {
	fset  *token.FileSet
	std   types.Importer
	pkgs  map[string]*types.Package
	info  *types.Info
	files []*ast.File
}

const modulePath = "nestwrf"

// Import implements types.Importer.
func (l *loader) Import(path string) (*types.Package, error) {
	if path == modulePath {
		return l.load(".")
	}
	if rest, ok := strings.CutPrefix(path, modulePath+"/"); ok {
		return l.load(rest)
	}
	return l.std.Import(path)
}

func (l *loader) load(dir string) (*types.Package, error) {
	if p, ok := l.pkgs[dir]; ok {
		return p, nil
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		if name := e.Name(); strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") {
			f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			files = append(files, f)
		}
	}
	path := modulePath
	if dir != "." {
		path += "/" + dir
	}
	p, err := (&types.Config{Importer: l}).Check(path, l.fset, files, l.info)
	if err != nil {
		return nil, err
	}
	l.pkgs[dir] = p
	l.files = append(l.files, files...)
	return p, nil
}

// rootExports maps each exported package-level identifier d declares
// (methods excluded) to the node whose span is its own declaration.
func rootExports(d ast.Decl) map[*ast.Ident]ast.Node {
	out := map[*ast.Ident]ast.Node{}
	switch d := d.(type) {
	case *ast.FuncDecl:
		if d.Recv == nil && d.Name.IsExported() {
			out[d.Name] = d
		}
	case *ast.GenDecl:
		for _, s := range d.Specs {
			switch s := s.(type) {
			case *ast.TypeSpec:
				if s.Name.IsExported() {
					out[s.Name] = s
				}
			case *ast.ValueSpec:
				for _, id := range s.Names {
					if id.IsExported() {
						out[id] = s
					}
				}
			}
		}
	}
	return out
}

// recvName returns the receiver's type name, without pointer or type
// parameters.
func recvName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.StarExpr:
		return recvName(e.X)
	case *ast.IndexExpr:
		return recvName(e.X)
	case *ast.IndexListExpr:
		return recvName(e.X)
	case *ast.Ident:
		return e.Name
	}
	return "?"
}
