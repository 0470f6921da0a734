package solver

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os/exec"
	"regexp"
	"strconv"
	"testing"
)

// The kernel's inner loops carry no per-element bounds check: every
// slice is re-cut to the loop's length first (DESIGN §9). The compiler
// reports each check it keeps under -d=ssa/check_bce/debug=1; each
// reported IsInBounds is mapped to its enclosing function.
func TestKernelBoundsCheckFree(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the package with the compiler's bounds-check report")
	}
	gobin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go command on PATH")
	}
	out, err := exec.Command(gobin, "build", "-gcflags=-d=ssa/check_bce/debug=1", ".").CombinedOutput()
	if err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	report := regexp.MustCompile(`(?m)^\S*?([^/\s]+\.go):(\d+):\d+: Found (\w+)$`).FindAllSubmatch(out, -1)
	if len(report) == 0 {
		t.Fatalf("compiler reported no bounds checks at all; the debug flag had no effect:\n%s", out)
	}

	kernel := map[string]bool{"Step": true, "fillFluxLine": true, "lfRow": true}
	fset := token.NewFileSet()
	funcs := map[string][]*ast.FuncDecl{} // file -> declarations
	enclosing := func(file string, line int) string {
		decls, ok := funcs[file]
		if !ok {
			f, err := parser.ParseFile(fset, file, nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok {
					decls = append(decls, fd)
				}
			}
			funcs[file] = decls
		}
		for _, fd := range decls {
			if fset.Position(fd.Pos()).Line <= line && line <= fset.Position(fd.End()).Line {
				return fd.Name.Name
			}
		}
		return ""
	}
	for _, m := range report {
		if string(m[3]) != "IsInBounds" {
			continue
		}
		file := string(m[1])
		line, _ := strconv.Atoi(string(m[2]))
		if fn := enclosing(file, line); kernel[fn] {
			t.Errorf("%s:%d: bounds check inside kernel function %s", file, line, fn)
		}
	}
	// A renamed kernel function would make the check vacuous.
	enclosing("solver.go", 0)
	for _, fd := range funcs["solver.go"] {
		delete(kernel, fd.Name.Name)
	}
	for fn := range kernel {
		t.Errorf("kernel function %s not found in solver.go", fn)
	}
}
