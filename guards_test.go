package kar

import (
	"cmp"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// The design's single-owner rules, read off the syntax tree of every Go
// file in the checkout: bench/ and examples/ included, testdata/ and
// dot-directories not. Each node states its facts (see facts), with
// package names resolved through the file's imports, so json.NewEncoder
// is not core.NewEncoder and a comment never matches. A rule reads the
// non-test files of its directories (all, when in is empty; test files
// too when tests is set), and a fact matching one of its patterns
// (path.Match) breaks it unless an owner covers the node: a directory
// the file lies under, or "dir:Func" / "dir:(*T).Method" for a node
// inside that declaration.
type rule struct {
	name, why string   // the rule, and the DESIGN.md sentence it holds
	in        []string // directories read; none is the whole tree
	tests     bool     // _test.go files are read too
	match     []string // fact patterns
	owns      []string
}

var guards = []rule{{
	name: "a deflection policy is defined in internal/deflect alone",
	why:  "internal/deflect is the only place a policy is defined: the switch's fast path and the verifier's chain derive from its Shape.",
	in:   []string{"internal/kswitch", "internal/analysis", "internal/resilience"},
	match: []string{`string "hp"`, `string "avp"`, `string "nip"`, `string "dtree"`,
		"use repro/internal/deflect.None", "use repro/internal/deflect.HotPotato", "use repro/internal/deflect.AnyValidPort",
		"use repro/internal/deflect.NotInputPort", "use repro/internal/deflect.DTree"},
	owns: []string{"internal/resilience:CheckSweep"}, // the verifier's default policy list
}, {
	name:  "one analyzer engine: chain expansion alone runs a policy and re-encodes",
	why:   "expandCore is internal/analysis's only caller of Decide: every verdict, drawn or not, comes from one chain.",
	in:    []string{"internal/analysis"},
	match: []string{"call .Decide"}, owns: []string{"internal/analysis:(*chain).expandCore"},
}, {
	name:  "one analyzer engine: chain expansion alone runs a policy and re-encodes",
	why:   "expandEdge is internal/analysis's only caller of the controller's re-encode: a wrong edge has one model.",
	in:    []string{"internal/analysis"},
	match: []string{"call .ReencodeRoute"}, owns: []string{"internal/analysis:(*chain).expandEdge"},
}, {
	name:  "a unit's verdicts live in its search tree",
	why:   "verdict is internal/resilience's only caller of compute: a (route, policy) unit's search tree is its one verdict store.",
	in:    []string{"internal/resilience"},
	match: []string{"call .compute"}, owns: []string{"internal/resilience:(*scratch).verdict"},
}, {
	name:  "a generator is seeded in internal/xrand alone",
	why:   "xrand.Source replaces every non-test rand.NewSource, which pays the 607-word seeding pass per world.",
	match: []string{"use math/rand.NewSource"}, owns: []string{"internal/xrand", "bench"},
}, {
	name: "the switch and the policies draw from xrand alone",
	why:  "Shape.Fallback draws straight from the switch's xrand.Source; deflect.Rand is that one method.",
	in:   []string{"internal/kswitch", "internal/deflect"}, match: []string{`import "math/rand"`},
}, {
	name:  "one front door: package main only under cmd/karsim, examples/ and bench/",
	why:   "cmd/karsim is the one binary: every entry point is a row of its experiment or verb table.",
	tests: true, match: []string{"package main"}, owns: []string{"cmd/karsim", "examples", "bench"},
}, {
	name:  "switch IDs are assigned in internal/topology alone",
	why:   "Only internal/topology's generated-graph builder calls coprime.Assign.",
	match: []string{`import "repro/internal/coprime"`}, owns: []string{"internal/topology", "bench"},
}, {
	name:  "one TCP run engine, one reactive control plane",
	why:   "Every TCP run goes through one engine, experiment.runSweep, RunTCP's only non-test caller.",
	match: []string{"use repro/internal/experiment.RunTCP"}, owns: []string{"internal/experiment:runSweep"},
}, {
	name:  "one TCP run engine, one reactive control plane",
	why:   "The reactive control plane has one owner, World.ReactAfter, the only caller of SetLinkDetectionHook outside simnet.",
	match: []string{"call .SetLinkDetectionHook"}, owns: []string{"internal/simnet", "internal/experiment:(*World).ReactAfter"},
}, {
	name: "a job request is declared by the engine that runs it",
	why:  "Daemon and CLI build scenario.Request and resilience.Request, declared by the engine that runs them.",
	in:   []string{"internal/serve"}, match: []string{"type *Request"},
}, {
	name:  "packets are made and recycled on their lane",
	why:   "packet.Get/Packet.Release remain only for the benchmark's kernels and the pool's own tests.",
	tests: true, match: []string{"use repro/internal/packet.Get", "call .Release"}, owns: []string{"internal/packet", "bench"},
}, {
	name:  "every goroutine has one owner: in internal/simnet the crew, in the control plane none",
	why:   "The crew's go statement is the only one in non-test internal/simnet, and the control plane starts no goroutine.",
	match: []string{"go statement"},
	owns: []string{"bench:startDaemon", "bench:drive", "cmd/karsim:runServe", "internal/par:ForEach",
		"internal/serve:New", "internal/serve:(*Server).Shutdown", "internal/simnet:(*Network).hire"},
}, {
	name:  "a route ID is encoded by core.EncodeRoute alone",
	why:   "Every route ID is core.EncodeRoute → rns.NewSystem, once per graph: controllers reuse it through the graph's route book.",
	in:    []string{"internal"},
	match: []string{"use repro/internal/rns.NewSystem"}, owns: []string{"internal/rns", "internal/core"},
}, {
	name: "a route ID is encoded by core.EncodeRoute alone",
	why:  "The controller's encode, which consults the graph's route book first, is its one caller in the control plane; Table 1 encodes the paper's routes as listed.",
	in:   []string{"internal"}, match: []string{"use repro/internal/core.EncodeRoute"},
	owns: []string{"internal/controller:(*Controller).encode", "internal/experiment:Table1",
		"internal/core:(*Encoder).EncodeRoute"}, // the bench-frozen shim, item 9 (e)
}, {
	name: "the control plane starts no goroutine",
	why:  "A failure or repair recomputes its affected routes one by one on the caller.",
	in:   []string{"internal/controller"}, match: []string{`import "repro/internal/par"`},
}, {
	name: "the control plane starts no goroutine",
	why:  "internal/core holds no lock: the planner's tree cache is read only from the caller, and the route book lives with the graph.",
	in:   []string{"internal/core"}, match: []string{`import "sync"`},
}, {
	name:  "the recorder is attached through SetTraceSink alone",
	why:   "SetTraceSink makes the event log's tap and SetTraceSink(nil) detaches it.",
	match: []string{"call .SetTap"}, owns: []string{"internal/simnet", "internal/telemetry"},
}}

func TestDesignGuards(t *testing.T) {
	fset, files := token.NewFileSet(), 0
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() && p != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
			return cmp.Or(err, filepath.SkipDir)
		}
		if d.IsDir() || !strings.HasSuffix(p, ".go") {
			return nil
		}
		af, err := parser.ParseFile(fset, p, nil, 0)
		if err != nil {
			return err
		}
		files++
		dir := filepath.ToSlash(filepath.Dir(p))
		f := &goFile{dir: dir, pkg: path.Join("repro", dir), imports: map[string]string{}}
		for _, s := range af.Imports {
			ip, _ := strconv.Unquote(s.Path.Value)
			name := path.Base(ip)
			if s.Name != nil {
				name = s.Name.Name
			}
			f.imports[name] = ip
		}
		test := strings.HasSuffix(p, "_test.go")
		rules := slices.DeleteFunc(slices.Clone(guards), func(r rule) bool {
			return test && !r.tests || r.in != nil && !slices.ContainsFunc(r.in, f.under)
		})
		check := func(n ast.Node, fn string) {
			for _, fact := range f.facts(n) {
				for _, r := range rules {
					matches := func(m string) bool { ok, _ := path.Match(m, fact); return ok }
					owned := func(o string) bool { return f.owns(o, fn) }
					if slices.ContainsFunc(r.match, matches) && !slices.ContainsFunc(r.owns, owned) {
						t.Errorf("rule %q: %s: %s", r.name, fset.Position(n.Pos()), fact)
					}
				}
			}
		}
		check(af, "")
		for _, d := range af.Decls {
			fn := ""
			if fd, ok := d.(*ast.FuncDecl); ok {
				fn = fd.Name.Name
				if fd.Recv != nil {
					fn = "(" + types.ExprString(fd.Recv.List[0].Type) + ")." + fn
				}
			}
			ast.Inspect(d, func(n ast.Node) bool {
				check(n, fn)
				return true
			})
		}
		return nil
	})
	if err != nil || files < 100 {
		t.Fatalf("parsed %d Go files: %v", files, err)
	}
}

// goFile is what a parsed file's names resolve against.
type goFile struct {
	dir, pkg string            // slash path from the checkout root; import path
	imports  map[string]string // local name → import path
}

func (f *goFile) under(dir string) bool { return f.dir == dir || strings.HasPrefix(f.dir, dir+"/") }

// owns reports whether owner covers a node of this file inside the
// declaration named fn.
func (f *goFile) owns(owner, fn string) bool {
	if dir, decl, ok := strings.Cut(owner, ":"); ok {
		return f.dir == dir && fn == decl
	}
	return f.under(owner)
}

// qualified names the package-level identifier e refers to, as
// "importpath.Name": pkg.Name through the file's imports, or a bare Name
// that is no local variable in the file's own package.
func (f *goFile) qualified(e ast.Expr) (string, bool) {
	switch e := e.(type) {
	case *ast.SelectorExpr:
		if x, ok := e.X.(*ast.Ident); ok && x.Obj == nil && f.imports[x.Name] != "" {
			return f.imports[x.Name] + "." + e.Sel.Name, true
		}
	case *ast.Ident:
		return f.pkg + "." + e.Name, e.Obj == nil || e.Obj.Kind == ast.Fun
	}
	return "", false
}

// facts states what node n is, in the terms rules match: "package p",
// `import "path"`, "go statement", `string "lit"`, "type T" (declared,
// not aliased), "use path.Name" (a package's identifier, or a call of
// one bare inside its package), "call .M" (a method call, whatever the
// receiver) and "call path.F passing path.Name".
func (f *goFile) facts(n ast.Node) []string {
	switch n := n.(type) {
	case *ast.File:
		return []string{"package " + n.Name.Name}
	case *ast.ImportSpec:
		return []string{"import " + n.Path.Value}
	case *ast.GoStmt:
		return []string{"go statement"}
	case *ast.BasicLit:
		if n.Kind == token.STRING {
			return []string{"string " + n.Value}
		}
	case *ast.TypeSpec:
		if !n.Assign.IsValid() {
			return []string{"type " + n.Name.Name}
		}
	case *ast.SelectorExpr:
		if q, ok := f.qualified(n); ok {
			return []string{"use " + q}
		}
	case *ast.CallExpr:
		var facts []string
		fn, qualified := f.qualified(n.Fun)
		if s, ok := n.Fun.(*ast.SelectorExpr); ok && !qualified {
			facts = append(facts, "call ."+s.Sel.Name)
		} else if _, ok := n.Fun.(*ast.Ident); ok && qualified {
			facts = append(facts, "use "+fn) // pkg.F is a SelectorExpr's own fact
		}
		for _, a := range n.Args {
			if arg, ok := f.qualified(a); ok && qualified {
				facts = append(facts, "call "+fn+" passing "+arg)
			}
		}
		return facts
	}
	return nil
}

// exempt is a name the caller rule lets go without a non-test use, with
// the ROADMAP item that frees it.
type exempt struct{ name, item string }

// benchFrozen are the names that only bench/ calls. bench/ is a module
// of its own that changes only with the benchmark, so its callers hold
// these names until the item rebuilds them.
var benchFrozen = []exempt{
	{"controller.WithWorkers", "9 (e)"},
	{"core.NewEncoder", "9 (e)"},
	{"core.Encoder.EncodeRoute", "9 (e)"},
	{"edge.New", "20"},
	{"edge.WithReencodeDelay", "20"},
	{"kswitch.Switch.Node", "20"},
	{"packet.Get", "9 (g)"},
	{"packet.Packet.Release", "9 (g)"},
	{"packet.Header.Marshal", "14 (c)"},
	{"packet.Header.Unmarshal", "14 (c)"},
	{"rns.System.Residues", "14 (c)"},
	{"serve.Server.Registry", "20"},
	{"simnet.Network.Delivered", "20"},
	{"simnet.Scheduler.Step", "14 (c)"},
	{"telemetry.Histogram.Count", "20"},
	{"telemetry.Histogram.Sum", "20"},
	{"telemetry.Registry.CounterValue", "20"},
	{"topology.Path.Links", "14 (c)"},
}

// testOracles are the names another package's test reads as its
// reference, so they cannot move into test files; the item that frees
// one is followed by that test.
var testOracles = []exempt{
	{"analysis.Analyzer.DeliverWithin", "22 (b); internal/resilience TestClosedFormMatchesSimulation"},
	{"packet.DepotLen", "4 (c); internal/simnet TestCloseReturnsInFlight"},
	{"simnet.Network.Pending", "4 (c); internal/experiment TestTripleFailureLiveness"},
}

// stdlibCalled are the methods the standard library calls by type
// assertion, so that no interface call in the module shows their use.
var stdlibCalled = []string{"String", "Error", "Unwrap", "MarshalJSON", "UnmarshalJSON"}

// module is the main module's non-test files type-checked, its own
// packages in import order and the standard library from source
// (offline), with bench/, a module of its own, checked apart, its
// tests included. TestCallerRule and TestRoutesAreImmutable share one
// check.
type module struct {
	fset        *token.FileSet
	pkgs        map[string]*types.Package
	files       []*ast.File // the main module's non-test files
	info, bench *types.Info
}

var loadModule = sync.OnceValues(func() (*module, error) {
	m := &module{fset: token.NewFileSet(), pkgs: map[string]*types.Package{}, info: newInfo(), bench: newInfo()}
	std := importer.ForCompiler(m.fset, "source", nil)
	var imp importerFunc
	check := func(ip, dir string, tests bool, info *types.Info) (*types.Package, error) {
		bp, err := build.ImportDir(dir, 0)
		if err != nil {
			return nil, err
		}
		names := bp.GoFiles
		if tests {
			names = append(names, bp.TestGoFiles...)
		}
		var files []*ast.File
		for _, name := range names {
			af, err := parser.ParseFile(m.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			files = append(files, af)
		}
		if info == m.info {
			m.files = append(m.files, files...)
		}
		conf := types.Config{Importer: imp}
		return conf.Check(ip, m.fset, files, info)
	}
	imp = func(ip string) (*types.Package, error) {
		dir, ok := strings.CutPrefix(ip, "repro")
		if !ok || dir != "" && dir[0] != '/' {
			return std.Import(ip)
		}
		if p := m.pkgs[ip]; p != nil {
			return p, nil
		}
		p, err := check(ip, "."+dir, false, m.info)
		m.pkgs[ip] = p
		return p, err
	}
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if p != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" || p == "bench") {
			return filepath.SkipDir
		}
		if _, err := build.ImportDir(p, 0); err != nil {
			return nil // no non-test Go files
		}
		_, err = imp(path.Join("repro", filepath.ToSlash(p)))
		return err
	})
	if err != nil || len(m.pkgs) < 30 {
		return nil, fmt.Errorf("type-checked %d packages: %v", len(m.pkgs), err)
	}
	if _, err := check("repro/bench", "bench", true, m.bench); err != nil {
		return nil, fmt.Errorf("bench: %w", err)
	}
	return m, nil
})

func newInfo() *types.Info {
	return &types.Info{Uses: map[*ast.Ident]types.Object{}, Defs: map[*ast.Ident]types.Object{},
		Types: map[ast.Expr]types.TypeAndValue{}, Selections: map[*ast.SelectorExpr]*types.Selection{}}
}

// TestCallerRule fails on a package-level function, method, variable or
// constant under internal/ that nothing but the tests of the
// type-checked module uses. A use is an identifier or a selection (of a
// generic method through its origin), or a call through an interface
// the method's type satisfies; bench/ counts only to freeze what it
// calls. An entry of benchFrozen or testOracles fails when its name is
// gone or gains a non-test caller outside bench/, so the lists only
// shrink.
func TestCallerRule(t *testing.T) {
	m, err := loadModule()
	if err != nil {
		t.Fatal(err)
	}
	fset, pkgs := m.fset, m.pkgs
	mainUses, benchUses := m.info.Uses, m.bench.Uses
	used, benchUsed := usedObjects(mainUses, pkgs), usedObjects(benchUses, nil)
	declared := map[string]types.Object{}
	listed := func(list []exempt, name string) bool {
		return slices.ContainsFunc(list, func(e exempt) bool { return e.name == name })
	}
	for ip, p := range pkgs {
		if !strings.HasPrefix(ip, "repro/internal/") {
			continue
		}
		for _, obj := range declaredObjects(p) {
			name := qualifiedName(obj)
			declared[name] = obj
			switch {
			case used.has(obj), listed(testOracles, name):
			case listed(benchFrozen, name):
				if !benchUsed.has(obj) {
					t.Errorf("%s is bench-frozen, yet bench/ does not use it: delete it and its entry", name)
				}
			default:
				t.Errorf("%s (%s) has no use in non-test code: delete it, or move it into its package's test files",
					name, fset.Position(obj.Pos()))
			}
		}
	}
	for _, e := range append(slices.Clip(benchFrozen), testOracles...) {
		if obj := declared[e.name]; obj == nil {
			t.Errorf("exempt %s (item %s) is gone: drop its entry", e.name, e.item)
		} else if used.has(obj) {
			t.Errorf("exempt %s (item %s) has a non-test caller: drop its entry", e.name, e.item)
		}
	}
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// declaredObjects lists p's package-level functions, variables and
// constants and the methods of its named types.
func declaredObjects(p *types.Package) []types.Object {
	var objs []types.Object
	for _, name := range p.Scope().Names() {
		switch obj := p.Scope().Lookup(name).(type) {
		case *types.Func, *types.Var, *types.Const:
			if name != "_" && name != "init" {
				objs = append(objs, obj)
			}
		case *types.TypeName:
			if n, ok := obj.Type().(*types.Named); ok && !obj.IsAlias() {
				for i := range n.NumMethods() {
					objs = append(objs, n.Method(i))
				}
			}
		}
	}
	return objs
}

// qualifiedName is "pkg.Name" or "pkg.Type.Method".
func qualifiedName(obj types.Object) string {
	name := obj.Pkg().Name() + "."
	if recv := receiver(obj); recv != nil {
		rt := recv.Type()
		if p, ok := rt.(*types.Pointer); ok {
			rt = p.Elem()
		}
		if n, ok := rt.(*types.Named); ok {
			name += n.Obj().Name() + "."
		}
	}
	return name + obj.Name()
}

// receiver is obj's receiver when obj is a method, else nil.
func receiver(obj types.Object) *types.Var {
	if f, ok := obj.(*types.Func); ok {
		return f.Type().(*types.Signature).Recv()
	}
	return nil
}

// useSet is the objects one set of files uses.
type useSet map[types.Object]bool

// usedObjects collects the objects uses refers to, generic methods
// through their origin, and every method of a named type in pkgs that a
// used interface method reaches, promoted ones included.
func usedObjects(uses map[*ast.Ident]types.Object, pkgs map[string]*types.Package) useSet {
	u := useSet{}
	ifaces := map[*types.Func]*types.Interface{}
	for _, obj := range uses {
		if f, ok := obj.(*types.Func); ok {
			obj = f.Origin()
			if recv := receiver(f); recv != nil && types.IsInterface(recv.Type()) {
				ifaces[f] = recv.Type().Underlying().(*types.Interface)
			}
		}
		u[obj] = true
	}
	for _, p := range pkgs {
		for _, name := range p.Scope().Names() {
			tn, ok := p.Scope().Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			n, ok := tn.Type().(*types.Named)
			if !ok || types.IsInterface(n) || n.TypeParams().Len() > 0 {
				continue
			}
			ptr := types.NewPointer(n)
			for im, iface := range ifaces {
				if types.Implements(ptr, iface) {
					m, _, _ := types.LookupFieldOrMethod(ptr, false, im.Pkg(), im.Name())
					u[m] = true
				}
			}
		}
	}
	return u
}

// has reports whether obj is used, or is a method the standard library
// calls by type assertion.
func (u useSet) has(obj types.Object) bool {
	return u[obj] || receiver(obj) != nil && slices.Contains(stdlibCalled, obj.Name())
}

// routeMutators are the library functions that write through their
// first argument.
var routeMutators = []string{"slices.Sort", "slices.SortFunc", "slices.SortStableFunc", "slices.Reverse",
	"slices.Delete", "slices.DeleteFunc", "slices.Insert", "slices.Compact", "slices.CompactFunc",
	"slices.Replace", "sort.Slice", "sort.SliceStable", "sort.Sort", "sort.Stable"}

// TestRoutesAreImmutable audits the main module's non-test code for a
// write into a core.Route after EncodeRoute built it: controllers on
// one graph share each route through the graph's route book, so one
// such write would change another world's route. Route storage is a
// field of a Route, what indexes or slices it, and every variable,
// field, parameter or function result that the code assigns, passes or
// returns it to (a flow-insensitive closure); a write is an assignment
// or increment into it, append, copy or clear of it, its address taken,
// or one of routeMutators called on it.
func TestRoutesAreImmutable(t *testing.T) {
	m, err := loadModule()
	if err != nil {
		t.Fatal(err)
	}
	route := m.pkgs["repro/internal/core"].Scope().Lookup("Route").Type()
	isRoute := func(t types.Type) bool {
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		return types.Identical(t, route)
	}
	// carries reports whether a value of type t shares storage with
	// what it was copied from.
	var carries func(t types.Type) bool
	carries = func(t types.Type) bool {
		switch u := t.Underlying().(type) {
		case *types.Slice:
			return true
		case *types.Pointer:
			return isRoute(u)
		case *types.Struct:
			for i := range u.NumFields() {
				if carries(u.Field(i).Type()) {
					return true
				}
			}
		}
		return false
	}
	objectOf := func(e ast.Expr) types.Object {
		switch e := ast.Unparen(e).(type) {
		case *ast.Ident:
			if obj := m.info.Defs[e]; obj != nil {
				return obj
			}
			return m.info.Uses[e]
		case *ast.SelectorExpr:
			if sel := m.info.Selections[e]; sel != nil {
				return sel.Obj()
			}
			return m.info.Uses[e.Sel]
		}
		return nil
	}
	held := map[types.Object]bool{} // variables, fields and functions holding route storage
	var owned func(e ast.Expr) bool
	owned = func(e ast.Expr) bool {
		switch e := ast.Unparen(e).(type) {
		case *ast.Ident:
			return held[objectOf(e)]
		case *ast.SelectorExpr:
			sel := m.info.Selections[e]
			if sel == nil || sel.Kind() != types.FieldVal {
				return false
			}
			return isRoute(m.info.Types[e.X].Type) || owned(e.X) || held[sel.Obj()]
		case *ast.IndexExpr:
			return owned(e.X)
		case *ast.SliceExpr:
			return owned(e.X)
		case *ast.StarExpr:
			return owned(e.X)
		case *ast.CallExpr:
			return held[objectOf(e.Fun)]
		}
		return false
	}
	flows := func(dst types.Object, src ast.Expr) bool {
		if dst == nil || held[dst] || !carries(dst.Type()) || !owned(src) {
			return false
		}
		held[dst] = true
		return true
	}
	// The closure: repeat until no assignment, call or return adds a holder.
	for grew := true; grew; {
		grew = false
		for _, f := range m.files {
			var fn []types.Object // enclosing functions, innermost last; nil for a literal
			var visit func(n ast.Node) bool
			visit = func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.FuncDecl:
					fn = append(fn, m.info.Defs[n.Name])
					if n.Body != nil {
						ast.Inspect(n.Body, visit)
					}
					fn = fn[:len(fn)-1]
					return false
				case *ast.FuncLit:
					fn = append(fn, nil)
					ast.Inspect(n.Body, visit)
					fn = fn[:len(fn)-1]
					return false
				case *ast.AssignStmt:
					if len(n.Lhs) == len(n.Rhs) {
						for i, lhs := range n.Lhs {
							grew = flows(objectOf(lhs), n.Rhs[i]) || grew
						}
					}
				case *ast.ValueSpec:
					if len(n.Names) == len(n.Values) {
						for i, name := range n.Names {
							grew = flows(m.info.Defs[name], n.Values[i]) || grew
						}
					}
				case *ast.KeyValueExpr:
					if k, ok := n.Key.(*ast.Ident); ok {
						grew = flows(m.info.Uses[k], n.Value) || grew
					}
				case *ast.CallExpr:
					f, ok := objectOf(n.Fun).(*types.Func)
					if !ok {
						break
					}
					params := f.Type().(*types.Signature).Params()
					for i, arg := range n.Args {
						if params.Len() > 0 {
							grew = flows(params.At(min(i, params.Len()-1)), arg) || grew
						}
					}
				case *ast.ReturnStmt:
					if len(fn) > 0 && fn[len(fn)-1] != nil {
						for _, r := range n.Results {
							if f := fn[len(fn)-1]; !held[f] && owned(r) {
								held[f], grew = true, true
							}
						}
					}
				}
				return true
			}
			ast.Inspect(f, visit)
		}
	}
	// inside reports whether e is a location in route storage.
	inside := func(e ast.Expr) bool {
		switch e := ast.Unparen(e).(type) {
		case *ast.SelectorExpr:
			return isRoute(m.info.Types[e.X].Type) || owned(e.X)
		case *ast.IndexExpr:
			return owned(e.X)
		case *ast.StarExpr:
			return owned(e.X)
		}
		return false
	}
	for _, f := range m.files {
		ast.Inspect(f, func(n ast.Node) bool {
			var target ast.Expr
			switch n := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					if inside(lhs) {
						target = lhs
					}
				}
			case *ast.IncDecStmt:
				if inside(n.X) {
					target = n.X
				}
			case *ast.UnaryExpr:
				if n.Op == token.AND && inside(n.X) {
					target = n.X
				}
			case *ast.CallExpr:
				if len(n.Args) == 0 || !owned(n.Args[0]) {
					break
				}
				switch fn := objectOf(n.Fun).(type) {
				case *types.Builtin:
					if slices.Contains([]string{"append", "copy", "clear"}, fn.Name()) {
						target = n.Args[0]
					}
				case *types.Func:
					if fn.Pkg() != nil && slices.Contains(routeMutators, fn.Pkg().Path()+"."+fn.Name()) {
						target = n.Args[0]
					}
				}
			}
			if target != nil {
				t.Errorf("%s: %s writes into a core.Route", m.fset.Position(n.Pos()), types.ExprString(target))
			}
			return true
		})
	}
	if len(held) < 5 {
		t.Errorf("route storage reaches only %d holders: the audit is not following it", len(held))
	}
	t.Logf("route storage reaches %d holders", len(held))
}
