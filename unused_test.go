package batchdb

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
)

// unusedAllowed lists the names under internal/ that no non-test file
// calls and that stay anyway, each with the reason. A key is the package
// path below internal/, a dot and the name, or Type.Method for a method.
var unusedAllowed = map[string]string{
	"network.SeverAfter":          "fault injector: the fleet and root tests cut a link after n frames",
	"network.DelayAll":            "fault injector: the chaos soak delays every frame",
	"network.IsInjectedFault":     "fault injector: tests tell an injected error from a real one",
	"crash.Injector.Arm":          "fault injector: the crash matrix arms one crash point at a time",
	"crash.Points":                "fault injector: the crash matrix iterates every point",
	"fleet/node.Node.InjectFault": "fault injector: tests fault a running node's link",
	"tpcc.SmallScale":             "the scale every TPC-C test loads",
	"obs.ParsePrometheus":         "Prometheus-text oracle the obs and server tests compare /metrics against",
	"storage.Schema.PutInt32":     "the writer of the public batchdb.Int32 column type",
	"baseline.Engine.ExecTxn":     "the reference transaction path the baseline mechanism tests keep",
	"fleet/node.Node.Stats":       "public as batchdb.ReplicaNode.Stats: a node's dispatcher counters, beside DB.OLAPStats and WorkloadReplica.Stats",
	"olap.Table.FindPK":           "the one-key lookup the root, oltp and replica tests check a replica's rows and routing with",
	"index.Hash.Range":            "walks a primary index: the mvcc twin-store tests compare the keys it physically holds",
	"mvcc.Table.ScanChains":       "walks every chain of a table, visible or not: the oltp and mvcc tests count versions with it",
	"mvcc.Chain.Head":             "a chain's newest version, where the version-count walks start",
	"mvcc.Record.Older":           "the next older version, the step of the version-count walks",
}

// TestNoUnusedExports fails when a package-level declaration under
// internal/ has no caller: an exported func, method, type, var or const
// that no non-test file of the module or of benchmark/ names, or an
// unexported one that no file of its own package names. Delete such code,
// move it into its package's export_test.go if only tests need it, or
// list it in unusedAllowed with the reason it stays.
func TestNoUnusedExports(t *testing.T) {
	got, err := findUnused(".", []string{".", "benchmark"}, unusedAllowed)
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range got {
		t.Errorf("%s: %s has no caller", u.pos, u.name)
	}
}

// TestUnusedGateFixture runs the gate on testdata/unused: it must report
// exactly the unused exported func and the dead unexported one, and
// nothing once both are deleted.
func TestUnusedGateFixture(t *testing.T) {
	allow := map[string]string{"lib.Allowed": "fixture allow-list entry"}
	got, err := findUnused("testdata/unused", []string{"."}, allow)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, u := range got {
		names = append(names, u.name)
	}
	if want := []string{"lib.Unused", "lib.dead"}; fmt.Sprint(names) != fmt.Sprint(want) {
		t.Fatalf("fixture reported %v, want %v", names, want)
	}

	dir := t.TempDir()
	if err := copyTree("testdata/unused", dir); err != nil {
		t.Fatal(err)
	}
	lib := filepath.Join(dir, "internal", "lib", "lib.go")
	src, err := os.ReadFile(lib)
	if err != nil {
		t.Fatal(err)
	}
	for _, decl := range []string{"func Unused() int { return 2 }\n", "func dead() int { return 3 }\n"} {
		if !bytes.Contains(src, []byte(decl)) {
			t.Fatalf("fixture lost %q", decl)
		}
		src = bytes.Replace(src, []byte(decl), nil, 1)
	}
	if err := os.WriteFile(lib, src, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err = findUnused(dir, []string{"."}, allow)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("fixture without the dead code still reports %v", got)
	}
}

type unusedDecl struct {
	name string // "<package below internal/>.<Name>"
	pos  token.Position
}

// listedPkg is the part of `go list -json` output the gate reads.
type listedPkg struct {
	ImportPath   string
	Dir          string
	Standard     bool
	GoFiles      []string
	TestGoFiles  []string
	XTestGoFiles []string
}

type checkedPkg struct {
	listedPkg
	files []*ast.File
	types *types.Package
	info  *types.Info
}

// findUnused type-checks, from source, the non-test files of every
// package that `go list -deps ./...` reaches from each of moduleDirs
// (relative to root), and reports the unused declarations under
// root/internal that allow does not list. An allow entry that names no
// unused declaration is an error too, so the list cannot go stale.
func findUnused(root string, moduleDirs []string, allow map[string]string) ([]unusedDecl, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	std := importer.ForCompiler(fset, "source", nil)
	byPath := map[string]*checkedPkg{}
	var pkgs []*checkedPkg
	imp := importerFunc(func(path string) (*types.Package, error) {
		if p, ok := byPath[path]; ok {
			return p.types, nil
		}
		return std.Import(path)
	})
	for _, md := range moduleDirs {
		listed, err := goListDeps(filepath.Join(root, md))
		if err != nil {
			return nil, err
		}
		for _, lp := range listed {
			if lp.Standard || byPath[lp.ImportPath] != nil {
				continue
			}
			p := &checkedPkg{listedPkg: lp, info: &types.Info{
				Defs: map[*ast.Ident]types.Object{},
				Uses: map[*ast.Ident]types.Object{},
			}}
			for _, name := range lp.GoFiles {
				f, err := parser.ParseFile(fset, filepath.Join(lp.Dir, name), nil, 0)
				if err != nil {
					return nil, err
				}
				p.files = append(p.files, f)
			}
			conf := types.Config{Importer: imp}
			if p.types, err = conf.Check(lp.ImportPath, fset, p.files, p.info); err != nil {
				return nil, fmt.Errorf("type-check %s: %w", lp.ImportPath, err)
			}
			byPath[lp.ImportPath] = p
			pkgs = append(pkgs, p)
		}
	}

	// A use is any identifier of a non-test file that resolves to the
	// declaration; an instantiation of a generic counts for its origin.
	used := map[types.Object]bool{}
	// A method may be called only through an interface, which go/types
	// resolves to the interface's method. So a method counts as used
	// when its type has every method some module interface declares, one
	// of them being this method; the interface may be generic, so the
	// match is by name.
	var ifaces [][]string
	for _, p := range pkgs {
		for _, obj := range p.info.Uses {
			used[originOf(obj)] = true
		}
		for _, obj := range p.info.Defs {
			tn, ok := obj.(*types.TypeName)
			if !ok {
				continue
			}
			if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
				names := make([]string, it.NumMethods())
				for i := range names {
					names[i] = it.Method(i).Name()
				}
				ifaces = append(ifaces, names)
			}
		}
	}
	implementsIface := func(fn *types.Func, recv *types.Named) bool {
		if n := fn.Name(); n == "String" || n == "Error" {
			return true
		}
		mset := types.NewMethodSet(types.NewPointer(recv))
		has := func(name string) bool { return mset.Lookup(fn.Pkg(), name) != nil }
		for _, names := range ifaces {
			if slices.Contains(names, fn.Name()) && !slices.ContainsFunc(names, func(n string) bool { return !has(n) }) {
				return true
			}
		}
		return false
	}

	internal := filepath.Join(root, "internal") + string(filepath.Separator)
	var out []unusedDecl
	seen := map[string]bool{}
	for _, p := range pkgs {
		if !strings.HasPrefix(p.Dir+string(filepath.Separator), internal) {
			continue
		}
		rel := filepath.ToSlash(strings.TrimPrefix(p.Dir+string(filepath.Separator), internal))
		rel = strings.TrimSuffix(rel, "/")
		named, err := namesInPackage(fset, p)
		if err != nil {
			return nil, err
		}
		report := func(obj types.Object, name string) {
			key := rel + "." + name
			if allow[key] != "" {
				seen[key] = true
				return
			}
			out = append(out, unusedDecl{name: key, pos: fset.Position(obj.Pos())})
		}
		for _, f := range p.files {
			for _, d := range f.Decls {
				for _, id := range declIdents(d) {
					obj := p.info.Defs[id]
					if obj == nil || id.Name == "_" || id.Name == "init" {
						continue
					}
					name := id.Name
					if fn, ok := obj.(*types.Func); ok && fn.Type().(*types.Signature).Recv() != nil {
						recv := receiverType(fn)
						if implementsIface(fn, recv) {
							continue
						}
						name = recv.Obj().Name() + "." + name
					}
					if obj.Exported() {
						if !used[obj] {
							report(obj, name)
						}
					} else if named[id.Name] == 0 {
						report(obj, name)
					}
				}
			}
		}
	}
	for key := range allow {
		if !seen[key] {
			return nil, fmt.Errorf("allow-list entry %q names no unused declaration", key)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out, nil
}

// namesInPackage counts, per name, the identifiers in every file of the
// package's directory, test files included, that are not the name of a
// package-level declaration.
func namesInPackage(fset *token.FileSet, p *checkedPkg) (map[string]int, error) {
	files := append([]*ast.File(nil), p.files...)
	for _, name := range append(append([]string(nil), p.TestGoFiles...), p.XTestGoFiles...) {
		f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, 0)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	decl := map[*ast.Ident]bool{}
	for _, f := range files {
		for _, d := range f.Decls {
			for _, id := range declIdents(d) {
				decl[id] = true
			}
		}
	}
	n := map[string]int{}
	for _, f := range files {
		ast.Inspect(f, func(node ast.Node) bool {
			if id, ok := node.(*ast.Ident); ok && !decl[id] {
				n[id.Name]++
			}
			return true
		})
	}
	return n, nil
}

// declIdents returns the names a top-level declaration declares.
func declIdents(d ast.Decl) []*ast.Ident {
	switch d := d.(type) {
	case *ast.FuncDecl:
		return []*ast.Ident{d.Name}
	case *ast.GenDecl:
		var ids []*ast.Ident
		for _, s := range d.Specs {
			switch s := s.(type) {
			case *ast.TypeSpec:
				ids = append(ids, s.Name)
			case *ast.ValueSpec:
				ids = append(ids, s.Names...)
			}
		}
		return ids
	}
	return nil
}

// receiverType is the named type a method is declared on.
func receiverType(fn *types.Func) *types.Named {
	t := fn.Type().(*types.Signature).Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	return t.(*types.Named)
}

// originOf maps a use of an instantiated generic func, method or field
// to its declaration.
func originOf(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// goListDeps runs `go list -deps -json ./...` in dir: dependencies come
// before the packages that import them.
func goListDeps(dir string) ([]listedPkg, error) {
	cmd := exec.Command("go", "list", "-deps", "-json", "./...")
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list in %s: %v: %s", dir, err, stderr.String())
	}
	var pkgs []listedPkg
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listedPkg
		if err := dec.Decode(&p); err == io.EOF {
			return pkgs, nil
		} else if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, p)
	}
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// copyTree copies the regular files under src into dst.
func copyTree(src, dst string) error {
	return filepath.Walk(src, func(path string, fi os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if fi.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, b, 0o644)
	})
}
