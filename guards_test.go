package kar

import (
	"cmp"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
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
	why:   "Every route ID is core.EncodeRoute → rns.NewSystem, with no basis cache.",
	match: []string{"use repro/internal/core.NewEncoder"}, owns: []string{"bench"},
}, {
	name:  "a route ID is encoded by core.EncodeRoute alone",
	why:   "Every route ID is core.EncodeRoute → rns.NewSystem, with no basis cache.",
	in:    []string{"internal"},
	match: []string{"use repro/internal/rns.NewSystem"}, owns: []string{"internal/rns", "internal/core"},
}, {
	name: "the control plane starts no goroutine",
	why:  "A failure or repair recomputes its affected routes one by one on the caller.",
	in:   []string{"internal/controller"}, match: []string{`import "repro/internal/par"`},
}, {
	name: "the control plane starts no goroutine",
	why:  "The planner's tree cache is read only from the caller, under the controller's lock, and needs none of its own.",
	in:   []string{"internal/core"}, match: []string{`import "sync"`},
}, {
	name:  "the recorder is attached through SetTraceSink alone",
	why:   "SetTraceSink makes the event log's tap and SetTraceSink(nil) detaches it.",
	match: []string{"call .SetTap"}, owns: []string{"internal/simnet", "internal/telemetry"},
}, {
	name:  "controller.WithWorkers only in bench/",
	why:   "WithWorkers is a no-op kept for the benchmark's frozen callers.",
	match: []string{"use repro/internal/controller.WithWorkers"}, owns: []string{"bench"},
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
