package repro

// The dead-code gate, run by `make deadcode` and tier-1: a model or a
// helper that no command, example, experiment or benchmark calls checks
// nothing the reproduction reports, so a top-level declaration that only
// tests reach fails the build, and so does a struct field that only tests
// read. It type-checks the module from source with the standard library
// alone (go/parser, go/types and the "source" importer for std), so
// nothing is downloaded.

import (
	"cmp"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
)

// deadAllow is the gate's one allowlist: an import path, or an import path
// and a name ("repro/internal/x.Type.Method", "repro/internal/x.Type.Field"),
// mapped to why what it matches may stay unreached or unread. An entry that
// matches nothing fails the gate.
var deadAllow = map[string]string{
	"repro/internal/des": "the discrete-event kernel keeps its whole API for the sim cluster ROADMAP item 1(c) builds on it",
	"repro/internal/serve.Response": "the return type of Engine.ServeWith, which bench/ pins; it goes with ServeWith " +
		"(ROADMAP items 5 and 11)",
	"repro/internal/multicore.RunStats.TasksRun": "the runner tests check that it equals len(dag.Tasks) " +
		"(every task runs, on an empty DAG none)",
	"repro/internal/multicore.RunStats.WorkPerWorker": "TestParallelSpeedupReal and TestStealingBalancesSkewedWork " +
		"read stealing's load balance from it, which wall-clock time on a shared host cannot show",
	"repro/internal/cluster.QueueingResult.Completed": "the queueing tests check from it that no request is lost " +
		"near saturation; nothing else counts the simulation's completions",
	"repro/internal/noc.FlitResult.DroppedAtSource": "TestFlitSimSaturationThroughputCaps checks from it that a " +
		"saturated mesh refuses injections; nothing else shows the source queue's back-pressure",
}

// deadConsumers are the code outside the module's non-test packages whose
// every use keeps a declaration alive: bench/ (a module of its own, so its
// pinned surface stays alive by its real use) and the root harness, whose
// benchmarks run the ablations DESIGN §3 documents and whose docs tests
// render DESIGN's generated blocks. A directory maps to nil for all of its
// non-test files.
var deadConsumers = map[string][]string{
	"bench": nil,
	".":     {"bench_test.go", "docs_test.go"},
}

func TestNoDeadCode(t *testing.T) {
	dead, stale, err := deadCode(".", deadConsumers, deadAllow)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range dead {
		t.Errorf("only tests reach or read %s", d)
	}
	for _, s := range stale {
		t.Errorf("allowlist entry %q matches nothing; delete it", s)
	}
}

// The gate's core on a small module: what only tests or nothing reach is
// flagged by name, transitively; a method a live type needs for a std
// interface and a function a consumer calls are not. A live type's field
// that nothing, only a test, or only a write of itself (a rescale or a
// running maximum) reads is flagged; a json-tagged, an embedded and a
// consumer-read field are not. An allowlist entry silences its match and
// one that matches nothing is reported.
func TestNoDeadCodeSelfTest(t *testing.T) {
	root := t.TempDir()
	for name, src := range map[string]string{
		"go.mod": "module example\n",
		"lib/lib.go": `package lib

type T struct{}

func (T) String() string { return "t" }

func New() T { return T{} }

func Unused() {}

func TestOnly() {}

func ChainA() { ChainB() }

func ChainB() {}

func ForConsumer() {}

type Rec struct {
	T
	Read     int
	Unread   int
	TestRead int
	Scaled   int
	Max      int
	Tagged   int ` + "`json:\"tagged\"`" + `
	Consumed int
}

func NewRec() Rec {
	base := Rec{Scaled: 3}
	r := Rec{Read: 1, Unread: 2, TestRead: 3, Scaled: base.Scaled * 2, Tagged: 4, Consumed: 5}
	r.Scaled = r.Scaled + 1
	for _, v := range []int{1, 2} {
		if v > r.Max {
			r.Max = v
		}
	}
	return r
}
`,
		"lib/lib_test.go": `package lib

import "testing"

func TestLib(t *testing.T) { TestOnly(); ChainA(); _ = NewRec().TestRead }
`,
		"cmd/main.go": `package main

import (
	"fmt"

	"example/lib"
)

func main() { fmt.Println(lib.New(), lib.NewRec().Read) }
`,
		"consumer/go.mod": "module example/consumer\n",
		"consumer/main.go": `package main

import "example/lib"

func main() { lib.ForConsumer(); _ = lib.NewRec().Consumed }
`,
	} {
		path := filepath.Join(root, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	consumers := map[string][]string{"consumer": nil}
	dead, stale, err := deadCode(root, consumers, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"lib/lib.go:9 lib.Unused", "lib/lib.go:11 lib.TestOnly", "lib/lib.go:13 lib.ChainA",
		"lib/lib.go:15 lib.ChainB", "lib/lib.go:22 lib.Rec.Unread", "lib/lib.go:23 lib.Rec.TestRead",
		"lib/lib.go:24 lib.Rec.Scaled", "lib/lib.go:25 lib.Rec.Max"}
	if !slices.Equal(dead, want) || len(stale) != 0 {
		t.Errorf("dead %q, stale %q; want dead %q and no stale entry", dead, stale, want)
	}
	allow := map[string]string{"example/lib.Unused": "kept", "example/lib.Rec.Unread": "kept",
		"example/gone": "matches nothing"}
	dead, stale, err = deadCode(root, consumers, allow)
	if err != nil {
		t.Fatal(err)
	}
	want = slices.Concat(want[1:4], want[5:])
	if !slices.Equal(dead, want) || !slices.Equal(stale, []string{"example/gone"}) {
		t.Errorf("with an allowlist: dead %q, stale %q; want dead %q and stale [example/gone]", dead, stale, want)
	}
}

// stdSource is the one importer for the standard library, shared by the
// gate and its self-test: it type-checks std from GOROOT's source once.
// Cgo is off so that packages such as net resolve to their pure-Go files
// without running the cgo tool.
var stdSource = sync.OnceValues(func() (*token.FileSet, types.Importer) {
	build.Default.CgoEnabled = false
	fset := token.NewFileSet()
	return fset, importer.ForCompiler(fset, "source", nil)
})

// modImporter type-checks the module's packages on demand from their
// non-test files and hands every other path to std.
type modImporter struct {
	fset  *token.FileSet
	std   types.Importer
	info  *types.Info
	dirs  map[string]string // import path -> directory
	pkgs  map[string]*types.Package
	files map[string][]*ast.File // import path -> its parsed files
}

func (m *modImporter) Import(path string) (*types.Package, error) {
	if p, ok := m.pkgs[path]; ok {
		return p, nil
	}
	dir, ok := m.dirs[path]
	if !ok {
		return m.std.Import(path)
	}
	files, err := parseDir(m.fset, dir, nil)
	if err != nil {
		return nil, err
	}
	p, err := m.check(path, files)
	if err != nil {
		return nil, err
	}
	m.pkgs[path], m.files[path] = p, files
	return p, nil
}

func (m *modImporter) check(path string, files []*ast.File) (*types.Package, error) {
	conf := types.Config{Importer: m}
	p, err := conf.Check(path, m.fset, files, m.info)
	if err != nil {
		return nil, fmt.Errorf("type-check %s: %w", path, err)
	}
	return p, nil
}

// goFiles lists the non-test Go files the default build context selects
// in dir.
func goFiles(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range ents {
		n := e.Name()
		if e.IsDir() || !strings.HasSuffix(n, ".go") || strings.HasSuffix(n, "_test.go") {
			continue
		}
		if ok, err := build.Default.MatchFile(dir, n); err != nil {
			return nil, err
		} else if ok {
			names = append(names, n)
		}
	}
	return names, nil
}

// parseDir parses names in dir, or, when names is nil, its goFiles.
func parseDir(fset *token.FileSet, dir string, names []string) ([]*ast.File, error) {
	if names == nil {
		var err error
		if names, err = goFiles(dir); err != nil {
			return nil, err
		}
	}
	var files []*ast.File
	for _, n := range names {
		f, err := parser.ParseFile(fset, filepath.Join(dir, n), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// deadCode type-checks every non-test package of the module rooted at
// root (skipping dot-directories, testdata and nested modules), then marks
// what is reachable from main and init functions, blank package-level
// initializers such as `var _ I = (*T)(nil)`, and every use in the
// consumer files; a live declaration keeps alive what its own syntax uses,
// and a live type keeps the methods through which it implements any
// interface the checked code declares or imports. It returns each
// unreached top-level declaration outside allow as "file:line pkg.Name",
// then, of every reached struct type, each field that neither the module's
// non-test code nor a consumer reads (see fieldReads), less the embedded
// and json-tagged ones, as "file:line pkg.Type.Field"; and the allow
// entries that matched nothing.
func deadCode(root string, consumers map[string][]string, allow map[string]string) (dead, stale []string, err error) {
	gomod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, nil, err
	}
	mod := strings.Fields(string(gomod)) // go.mod opens with its module line
	if len(mod) < 2 || mod[0] != "module" {
		return nil, nil, fmt.Errorf("%s/go.mod does not open with its module line", root)
	}
	module := mod[1]
	fset, std := stdSource()
	m := &modImporter{fset: fset, std: std, dirs: map[string]string{}, pkgs: map[string]*types.Package{},
		files: map[string][]*ast.File{},
		info: &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{},
			Types: map[ast.Expr]types.TypeAndValue{}}}
	err = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		name := d.Name()
		if path != root {
			if strings.HasPrefix(name, ".") || name == "testdata" {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir
			}
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		if names, err := goFiles(path); err != nil || len(names) == 0 {
			return err
		}
		imp := module
		if rel != "." {
			imp += "/" + filepath.ToSlash(rel)
		}
		m.dirs[imp] = path
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	for imp := range m.dirs {
		if _, err := m.Import(imp); err != nil {
			return nil, nil, err
		}
	}

	// The declarations, each with the syntax whose uses it keeps alive.
	type decl struct {
		name string
		pos  token.Pos
		node ast.Node
	}
	decls := map[types.Object]*decl{}
	var roots []ast.Node
	var files []*ast.File // the module's non-test files and the consumers'
	for _, pkgFiles := range m.files {
		files = append(files, pkgFiles...)
		for _, f := range pkgFiles {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if d.Recv == nil && (d.Name.Name == "init" || f.Name.Name == "main" && d.Name.Name == "main") {
						roots = append(roots, d)
						continue
					}
					name := d.Name.Name
					if d.Recv != nil {
						name = recvName(d.Recv.List[0].Type) + "." + name
					}
					decls[m.info.Defs[d.Name]] = &decl{name, d.Pos(), d}
				case *ast.GenDecl:
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							decls[m.info.Defs[s.Name]] = &decl{s.Name.Name, s.Pos(), s}
						case *ast.ValueSpec:
							for _, n := range s.Names {
								if n.Name == "_" {
									roots = append(roots, s)
									continue
								}
								decls[m.info.Defs[n]] = &decl{n.Name, n.Pos(), s}
							}
						}
					}
				}
			}
		}
	}
	var checked []*types.Package // the module's packages and the consumers
	for _, p := range m.pkgs {
		checked = append(checked, p)
	}
	for dir, names := range consumers {
		cfiles, err := parseDir(fset, filepath.Join(root, dir), names)
		if err != nil {
			return nil, nil, err
		}
		p, err := m.check(module+"/"+dir+" (consumer)", cfiles)
		if err != nil {
			return nil, nil, err
		}
		checked = append(checked, p)
		files = append(files, cfiles...)
		for _, f := range cfiles {
			roots = append(roots, f)
		}
	}
	uf, err := parser.ParseFile(fset, "unnamed.go", stdUnnamed, 0)
	if err != nil {
		return nil, nil, err
	}
	unnamed, err := (&types.Config{}).Check("unnamed", fset, []*ast.File{uf}, nil)
	if err != nil {
		return nil, nil, err
	}

	// Interfaces: every named one the checked code declares or imports,
	// and every literal one it writes.
	ifaces := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	seen := map[*types.Package]bool{}
	for _, p := range append(checked, unnamed) {
		collectIfaces(p, seen, &ifaces)
	}
	for _, tv := range m.info.Types {
		if it, ok := tv.Type.(*types.Interface); ok && it.NumMethods() > 0 {
			ifaces = append(ifaces, it)
		}
	}

	live := map[types.Object]bool{}
	var queue []types.Object
	mark := func(o types.Object) {
		if f, ok := o.(*types.Func); ok {
			o = f.Origin()
		}
		if _, tracked := decls[o]; tracked && !live[o] {
			live[o] = true
			queue = append(queue, o)
		}
	}
	markUses := func(n ast.Node) {
		ast.Inspect(n, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if o := m.info.Uses[id]; o != nil {
					mark(o)
				}
			}
			return true
		})
	}
	for _, n := range roots {
		markUses(n)
	}
	for len(queue) > 0 {
		o := queue[0]
		queue = queue[1:]
		markUses(decls[o].node)
		if v, ok := o.(*types.Const); ok { // an iota group's implicit type
			if named, ok := v.Type().(*types.Named); ok {
				mark(named.Obj())
			}
		}
		tn, ok := o.(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok || types.IsInterface(named) {
			continue
		}
		if named.TypeParams().Len() > 0 { // no interface check on a generic type: keep its methods
			for i := 0; i < named.NumMethods(); i++ {
				mark(named.Method(i))
			}
			continue
		}
		ptr := types.NewPointer(named)
		mset := types.NewMethodSet(ptr)
		for _, it := range ifaces {
			if !types.Implements(named, it) && !types.Implements(ptr, it) {
				continue
			}
			for i := 0; i < it.NumMethods(); i++ {
				if sel := mset.Lookup(it.Method(i).Pkg(), it.Method(i).Name()); sel != nil {
					mark(sel.Obj())
				}
			}
		}
	}

	type hit struct {
		file, name string
		line       int
	}
	var hits []hit
	used := map[string]bool{}
	flag := func(pkg *types.Package, name string, pos token.Pos) {
		full, allowed := pkg.Path()+"."+name, false
		for key := range allow {
			if full == key || strings.HasPrefix(full, key+".") {
				allowed, used[key] = true, true
			}
		}
		if allowed {
			return
		}
		p := fset.Position(pos)
		file := p.Filename
		if rel, err := filepath.Rel(root, file); err == nil {
			file = filepath.ToSlash(rel)
		}
		hits = append(hits, hit{file, pkg.Name() + "." + name, p.Line})
	}
	read := fieldReads(m.info, files)
	for o, d := range decls {
		if !live[o] {
			flag(o.Pkg(), d.name, d.pos)
			continue
		}
		if ts, ok := d.node.(*ast.TypeSpec); ok {
			if st, ok := ts.Type.(*ast.StructType); ok {
				unreadFields(m.info, read, d.name, st, func(name string, pos token.Pos) { flag(o.Pkg(), name, pos) })
			}
		}
	}
	slices.SortFunc(hits, func(a, b hit) int {
		return cmp.Or(strings.Compare(a.file, b.file), a.line-b.line, strings.Compare(a.name, b.name))
	})
	for _, h := range hits {
		dead = append(dead, fmt.Sprintf("%s:%d %s", h.file, h.line, h.name))
	}
	for key := range allow {
		if !used[key] {
			stale = append(stale, key)
		}
	}
	sort.Strings(stale)
	return dead, stale, nil
}

// fieldReads returns the struct fields that files read. The key of a keyed
// composite literal and the field an assignment or ++/-- stores to are
// writes, and so is a read of a field inside the value stored to that same
// field (`T{F: base.F * k}`, `x.F = x.F + d`): it only rescales the field.
// A read in the condition of an if whose body only stores that field (a
// running maximum, `if w > x.F { x.F = w }`) is a write too.
func fieldReads(info *types.Info, files []*ast.File) map[*types.Var]bool {
	fieldOf := func(id *ast.Ident) *types.Var {
		if v, ok := info.Uses[id].(*types.Var); ok && v.IsField() {
			return v.Origin()
		}
		return nil
	}
	writes := map[*ast.Ident]bool{}
	write := func(id *ast.Ident, val ast.Expr) {
		writes[id] = true
		if v := fieldOf(id); v != nil && val != nil {
			ast.Inspect(val, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && fieldOf(id) == v {
					writes[id] = true
				}
				return true
			})
		}
	}
	stored := func(x ast.Expr, val ast.Expr) {
		if sel, ok := ast.Unparen(x).(*ast.SelectorExpr); ok {
			write(sel.Sel, val)
		}
	}
	// onlyStores is the one field that every statement of an if without
	// init or else assigns to, or nil.
	onlyStores := func(n *ast.IfStmt) *types.Var {
		if n.Init != nil || n.Else != nil {
			return nil
		}
		var only *types.Var
		for _, st := range n.Body.List {
			as, ok := st.(*ast.AssignStmt)
			if !ok {
				return nil
			}
			for _, lhs := range as.Lhs {
				sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr)
				if !ok {
					return nil
				}
				v := fieldOf(sel.Sel)
				if v == nil || only != nil && v != only {
					return nil
				}
				only = v
			}
		}
		return only
	}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for i, lhs := range n.Lhs {
					var val ast.Expr
					if len(n.Rhs) == len(n.Lhs) {
						val = n.Rhs[i]
					}
					stored(lhs, val)
				}
			case *ast.IncDecStmt:
				stored(n.X, nil)
			case *ast.IfStmt:
				if v := onlyStores(n); v != nil {
					ast.Inspect(n.Cond, func(n ast.Node) bool {
						if id, ok := n.(*ast.Ident); ok && fieldOf(id) == v {
							writes[id] = true
						}
						return true
					})
				}
			case *ast.CompositeLit:
				for _, e := range n.Elts {
					if kv, ok := e.(*ast.KeyValueExpr); ok {
						if id, ok := kv.Key.(*ast.Ident); ok {
							write(id, kv.Value)
						}
					}
				}
			}
			return true
		})
	}
	read := map[*types.Var]bool{}
	for id := range info.Uses {
		if v := fieldOf(id); v != nil && !writes[id] {
			read[v] = true
		}
	}
	return read
}

// unreadFields calls flag with the name (prefix.Field, and
// prefix.Field.Sub inside an anonymous struct) and position of every field
// of st that read lacks, less the embedded, blank (padding) and
// json-tagged ones.
func unreadFields(info *types.Info, read map[*types.Var]bool, prefix string, st *ast.StructType, flag func(string, token.Pos)) {
	for _, f := range st.Fields.List {
		if f.Tag != nil && strings.Contains(f.Tag.Value, `json:"`) {
			continue
		}
		for _, n := range f.Names {
			name := prefix + "." + n.Name
			if v, ok := info.Defs[n].(*types.Var); ok && n.Name != "_" && !read[v] {
				flag(name, n.Pos())
			}
			if sub, ok := f.Type.(*ast.StructType); ok {
				unreadFields(info, read, name, sub, flag)
			}
		}
	}
}

// stdUnnamed declares the interfaces the errors package asserts without
// naming them (errors.Is, errors.As and errors.Unwrap), which no package
// scope shows.
const stdUnnamed = `package unnamed

type (
	is        interface{ Is(error) bool }
	as        interface{ As(any) bool }
	unwrap    interface{ Unwrap() error }
	unwrapAll interface{ Unwrap() []error }
)
`

// recvName is a method receiver's type name, without pointer or type
// parameters.
func recvName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return fmt.Sprint(e)
		}
	}
}

// collectIfaces appends the non-empty named interfaces of p and of
// everything it imports.
func collectIfaces(p *types.Package, seen map[*types.Package]bool, out *[]*types.Interface) {
	if seen[p] {
		return
	}
	seen[p] = true
	scope := p.Scope()
	for _, n := range scope.Names() {
		if tn, ok := scope.Lookup(n).(*types.TypeName); ok {
			if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
				if named, ok := tn.Type().(*types.Named); !ok || named.TypeParams().Len() == 0 {
					*out = append(*out, it)
				}
			}
		}
	}
	for _, q := range p.Imports() {
		collectIfaces(q, seen, out)
	}
}
