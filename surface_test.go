package multisimd

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// The module's exported surface is what the toolflow, the daemon, the
// CLIs and the examples call. TestExportedSurfaceHasCallers fails on an
// exported function or method that no non-test file names, so a
// capability only tests use cannot land on (or stay on) the surface.
//
// A caller is any non-test file of the module, or any file at all
// under perfbench/: that module is a frozen benchmark harness, so what
// it calls must stay. A package-level function counts as called when
// its package names it bare or another file names it through an import
// of its package; a method counts as called when any file selects a
// field or method of that name on a value. The scan is syntactic (no
// type checking), so it errs towards keeping a name alive.

// surfaceModule is the root module's import path.
const surfaceModule = "github.com/scaffold-go/multisimd"

// surfaceAllowedPackages are packages whose whole exported surface is
// allowed: their callers live outside what the scan reads.
var surfaceAllowedPackages = map[string]string{
	"internal/sim": "the examples and tests drive the simulator as a library",
}

// surfaceInterfaceMethods are method names that satisfy standard-library
// interfaces, which call them without naming them in this module.
var surfaceInterfaceMethods = map[string]bool{
	"String": true, "Error": true, "Unwrap": true, // fmt.Stringer, error
	"MarshalJSON": true, "UnmarshalJSON": true, "MarshalText": true, "UnmarshalText": true,
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true, // sort, container/heap
	"Read": true, "Write": true, "Close": true, // io
	"ServeHTTP": true, "Set": true, // http.Handler, flag.Value
}

// surfaceAllowlist names exported functions (package-relative path,
// then Name or Type.Method) that only tests call but that stay
// exported, each with the reason. An entry naming nothing declared
// fails the guard, so the list cannot outlive its names.
var surfaceAllowlist = map[string]string{
	"internal/obs/telem.ReadBundle":    "reads a postmortem bundle back for the telem and server tests",
	"internal/qasm.Opcode.IsPrimitive": "the qasm, decompose and core tests check decomposed output against the target gate set",
	"internal/qasm.Parse":              "QASM reader: the qasm and verify fuzz tests and core's emit round trip read emitted streams back",
	"internal/report.ReadFile":         "reads a written report back for the report, qsched and qbench record tests",
	"internal/schedule.FromLists":      "builds fixture schedules for the schedule, comm, epr, numa and verify tests",
	"internal/schedule.MustLookup":     "registry lookup for the schedule and verify tests",
	"internal/schedule.Sequential":     "one-op-per-step reference schedule for the schedule, verify and core tests",
	"internal/verify.RandomLeaf":       "seeded random leaf shared by the dag, rcp, lpfs, schedule, comm, report and verify tests",
}

// surfaceDecl is one exported function or method declared in a
// non-test file.
type surfaceDecl struct {
	pkg  string // package path relative to the module root
	name string // Name, or Type.Method
	pos  string
}

func TestExportedSurfaceHasCallers(t *testing.T) {
	fset := token.NewFileSet()
	type file struct {
		dir  string // package directory relative to the module root
		ast  *ast.File
		test bool
	}
	var files []file
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files = append(files, file{dir: filepath.ToSlash(filepath.Dir(p)), ast: f, test: strings.HasSuffix(p, "_test.go")})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	inPerfbench := func(dir string) bool { return strings.HasPrefix(dir+"/", "perfbench/") }

	// Declarations: exported functions and methods in the root module's
	// non-test files.
	var decls []surfaceDecl
	for _, f := range files {
		if f.test || inPerfbench(f.dir) {
			continue
		}
		for _, d := range f.ast.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || !fd.Name.IsExported() {
				continue
			}
			decls = append(decls, surfaceDecl{pkg: f.dir, name: declName(fd), pos: fset.Position(fd.Pos()).String()})
		}
	}

	// References from callers: bare names per package, package-qualified
	// names per imported package, and selected names for methods.
	bare := map[string]bool{}      // dir + "." + Name
	qualified := map[string]bool{} // dir + "." + Name
	selected := map[string]bool{}  // Name
	for _, f := range files {
		if f.test && !inPerfbench(f.dir) {
			continue
		}
		imports := map[string]string{} // local name -> package dir
		for _, is := range f.ast.Imports {
			ip, _ := strconv.Unquote(is.Path.Value)
			rel, ok := strings.CutPrefix(ip, surfaceModule+"/")
			if !ok {
				continue
			}
			local := path.Base(rel)
			if is.Name != nil {
				local = is.Name.Name
			}
			imports[local] = rel
		}
		for _, d := range f.ast.Decls {
			// A function naming itself does not keep it alive.
			self := ""
			if fd, ok := d.(*ast.FuncDecl); ok {
				self = declName(fd)
			}
			var record func(ast.Node) bool
			record = func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.FuncDecl:
					// Everything but the declared name.
					if n.Recv != nil {
						ast.Inspect(n.Recv, record)
					}
					ast.Inspect(n.Type, record)
					if n.Body != nil {
						ast.Inspect(n.Body, record)
					}
					return false
				case *ast.SelectorExpr:
					if x, ok := n.X.(*ast.Ident); ok {
						if rel, ok := imports[x.Name]; ok {
							qualified[rel+"."+n.Sel.Name] = true
							return false
						}
					}
					selected[n.Sel.Name] = true
					ast.Inspect(n.X, record)
					return false
				case *ast.Ident:
					if n.Name != self {
						bare[f.dir+"."+n.Name] = true
					}
				}
				return true
			}
			ast.Inspect(d, record)
		}
	}

	declared := map[string]bool{} // keys, and package paths
	var dead []string
	for _, d := range decls {
		key := d.pkg + "." + d.name
		declared[key], declared[d.pkg] = true, true
		if _, ok := surfaceAllowedPackages[d.pkg]; ok {
			continue
		}
		if _, ok := surfaceAllowlist[key]; ok {
			continue
		}
		if _, method, isMethod := strings.Cut(d.name, "."); isMethod {
			if surfaceInterfaceMethods[method] || selected[method] {
				continue
			}
		} else if bare[key] || qualified[key] {
			continue
		}
		dead = append(dead, key+" ("+d.pos+")")
	}
	sort.Strings(dead)
	for _, k := range dead {
		t.Errorf("exported %s has no non-test caller: delete it, move it into a _test.go file, or allowlist it with a reason", k)
	}
	var stale []string
	for k, reason := range surfaceAllowlist {
		if !declared[k] {
			stale = append(stale, k)
		}
		if strings.TrimSpace(reason) == "" {
			t.Errorf("allowlist entry %s gives no reason", k)
		}
	}
	for k := range surfaceAllowedPackages {
		if !declared[k] {
			stale = append(stale, k)
		}
	}
	sort.Strings(stale)
	for _, k := range stale {
		t.Errorf("allowlist entry %s names nothing declared: remove it", k)
	}
}

// declName is fd's name, qualified by its receiver's type for a method.
func declName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	typ := fd.Recv.List[0].Type
	if star, ok := typ.(*ast.StarExpr); ok {
		typ = star.X
	}
	switch x := typ.(type) { // a generic type's receiver
	case *ast.IndexExpr:
		typ = x.X
	case *ast.IndexListExpr:
		typ = x.X
	}
	if id, ok := typ.(*ast.Ident); ok {
		return id.Name + "." + fd.Name.Name
	}
	return fd.Name.Name
}
