package topompc_test

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
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// uncalledAllowed names the exported functions and methods under internal/
// that may have no caller in a production file, each with why it stays.
// Every entry is an oracle or fixture that another package's tests use, so
// it cannot move into its own package's _test.go files. Keys are
// "pkg.Func" or "pkg.Type.Method", pkg relative to the module.
var uncalledAllowed = map[string]string{
	"internal/topology.Tree.Steiner":        "the Steiner-tree oracle of netsim's round oracle and the root package's benchmarks",
	"internal/topology.NewSteinerScratch":   "the scratch Tree.Steiner takes in those tests",
	"internal/topology.Tree.CutComputeSets": "the cut oracle of lowerbound's tests",
	"internal/topology.Tree.Validate":       "the invariant check cliutil's tests run on parsed trees",
	"internal/topology.Tree.Root":           "the router netsim's and aggregate's tests aim misdirected sends at",
	"internal/netsim.Inbox.Messages":        "the message-list view intersect's and place's tests read inboxes through",
	"internal/topology/topotest.Draw":       "the topology-shape fixture of the protocol tests; its package exists for tests",
}

// TestProductionFuncsHaveCallers type-checks every non-test package of the
// module and of bench/ and fails on any exported function or method under
// internal/ that no non-test file uses. A method that satisfies an interface
// counts as used; uncalledAllowed lists the exceptions.
func TestProductionFuncsHaveCallers(t *testing.T) {
	goTool := goCommand(t)
	var pkgs []*listedPkg
	seen := map[string]bool{}
	for _, dir := range []string{".", "bench"} {
		listed, err := goList(goTool, dir, "-deps", "-json", "./...")
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range listed {
			if !seen[p.ImportPath] {
				seen[p.ImportPath] = true
				pkgs = append(pkgs, p)
			}
		}
	}
	var std []string
	src := map[string]*listedPkg{}
	for _, p := range pkgs {
		if p.Standard {
			std = append(std, p.ImportPath)
		} else {
			src[p.ImportPath] = p
		}
	}
	exports, err := goList(goTool, ".", append([]string{"-export", "-json"}, std...)...)
	if err != nil {
		t.Fatal(err)
	}
	exportFile := map[string]string{}
	for _, p := range exports {
		exportFile[p.ImportPath] = p.Export
	}

	fset := token.NewFileSet()
	c := &sourceChecker{
		fset: fset,
		src:  src,
		std: importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
			f, ok := exportFile[path]
			if !ok || f == "" {
				return nil, fmt.Errorf("no export data for %q", path)
			}
			return os.Open(f)
		}),
		done:   map[string]*checkedPkg{},
		bodies: map[*types.Func]*ast.BlockStmt{},
	}
	for _, p := range pkgs {
		if !p.Standard {
			if _, err := c.check(p.ImportPath); err != nil {
				t.Fatal(err)
			}
		}
	}

	root, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	used := map[*types.Func]bool{}
	var ifaces []*types.Interface
	for _, cp := range c.done {
		for id, obj := range cp.info.Uses {
			fn, ok := obj.(*types.Func)
			if !ok {
				continue
			}
			fn = fn.Origin()
			if body := c.bodies[fn]; body != nil && body.Pos() <= id.Pos() && id.Pos() < body.End() {
				continue // recursion is not a caller
			}
			used[fn] = true
		}
		for _, tv := range cp.info.Types {
			ifaces = appendIface(ifaces, tv.Type)
		}
	}
	for _, pkg := range c.imported() {
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				ifaces = appendIface(ifaces, tn.Type())
			}
		}
	}
	ifaces = appendIface(ifaces, types.Universe.Lookup("error").Type())

	var missing []string
	stale := map[string]bool{}
	for key := range uncalledAllowed {
		stale[key] = true
	}
	for path, cp := range c.done {
		if !strings.HasPrefix(path, "topompc/internal/") {
			continue
		}
		for _, fn := range cp.exported {
			if used[fn] || satisfiesInterface(fn, ifaces) {
				continue
			}
			key := strings.TrimPrefix(path, "topompc/") + "." + funcName(fn)
			if _, ok := uncalledAllowed[key]; ok {
				delete(stale, key)
				continue
			}
			pos := fset.Position(fn.Pos())
			rel, err := filepath.Rel(root, pos.Filename)
			if err != nil {
				rel = pos.Filename
			}
			missing = append(missing, fmt.Sprintf("%s (%s:%d)", key, filepath.ToSlash(rel), pos.Line))
		}
	}
	slices.Sort(missing)
	for _, m := range missing {
		t.Errorf("no production caller: %s", m)
	}
	for _, key := range slices.Sorted(maps.Keys(stale)) {
		t.Errorf("allowlist entry %s is gone or has a production caller now: drop it from uncalledAllowed", key)
	}
}

type listedPkg struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Standard   bool
	Export     string
}

type checkedPkg struct {
	pkg      *types.Package
	info     *types.Info
	exported []*types.Func // exported top-level functions and methods, in source order
}

// sourceChecker type-checks the module's packages from source, so that one
// object stands for each function however many packages use it, and reads
// the standard library from the compiler's export data.
type sourceChecker struct {
	fset   *token.FileSet
	src    map[string]*listedPkg
	std    types.Importer
	done   map[string]*checkedPkg
	bodies map[*types.Func]*ast.BlockStmt
}

func (c *sourceChecker) Import(path string) (*types.Package, error) {
	if _, ok := c.src[path]; !ok {
		return c.std.Import(path)
	}
	cp, err := c.check(path)
	if err != nil {
		return nil, err
	}
	return cp.pkg, nil
}

func (c *sourceChecker) check(path string) (*checkedPkg, error) {
	if cp := c.done[path]; cp != nil {
		return cp, nil
	}
	lp := c.src[path]
	var files []*ast.File
	for _, name := range lp.GoFiles {
		f, err := parser.ParseFile(c.fset, filepath.Join(lp.Dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}
	conf := types.Config{Importer: c}
	pkg, err := conf.Check(path, c.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %v", path, err)
	}
	cp := &checkedPkg{pkg: pkg, info: info}
	for _, f := range files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			fn := info.Defs[fd.Name].(*types.Func)
			c.bodies[fn] = fd.Body
			if fd.Name.IsExported() {
				cp.exported = append(cp.exported, fn)
			}
		}
	}
	c.done[path] = cp
	return cp, nil
}

// imported returns every package reachable from the checked ones.
func (c *sourceChecker) imported() []*types.Package {
	seen := map[*types.Package]bool{}
	var out []*types.Package
	var walk func(p *types.Package)
	walk = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		out = append(out, p)
		for _, q := range p.Imports() {
			walk(q)
		}
	}
	for _, cp := range c.done {
		walk(cp.pkg)
	}
	return out
}

func appendIface(ifaces []*types.Interface, t types.Type) []*types.Interface {
	if t == nil {
		return ifaces
	}
	if it, ok := t.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
		return append(ifaces, it)
	}
	return ifaces
}

// satisfiesInterface reports whether fn is a method that makes its receiver
// type implement one of ifaces that has a method of fn's name.
func satisfiesInterface(fn *types.Func, ifaces []*types.Interface) bool {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	named := receiverNamed(recv.Type())
	if named == nil || named.TypeParams().Len() > 0 {
		return false
	}
	for _, it := range ifaces {
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() != fn.Name() {
				continue
			}
			if types.Implements(named, it) || types.Implements(types.NewPointer(named), it) {
				return true
			}
		}
	}
	return false
}

func receiverNamed(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

func funcName(fn *types.Func) string {
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		if named := receiverNamed(recv.Type()); named != nil {
			return named.Obj().Name() + "." + fn.Name()
		}
	}
	return fn.Name()
}

// goCommand finds the go tool that builds this test.
func goCommand(t *testing.T) string {
	if p, err := exec.LookPath("go"); err == nil {
		return p
	}
	p := filepath.Join(runtime.GOROOT(), "bin", "go")
	if _, err := os.Stat(p); err != nil {
		t.Fatalf("no go tool on PATH or in GOROOT: %v", err)
	}
	return p
}

// goList runs "go list" with args in dir and decodes its JSON stream.
func goList(goTool, dir string, args ...string) ([]*listedPkg, error) {
	cmd := exec.Command(goTool, append([]string{"list"}, args...)...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %s in %s: %v\n%s", strings.Join(args, " "), dir, err, stderr.String())
	}
	var pkgs []*listedPkg
	dec := json.NewDecoder(bytes.NewReader(out))
	for dec.More() {
		p := new(listedPkg)
		if err := dec.Decode(p); err != nil {
			return nil, err
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}
