package heap

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
)

// apiAllowlist names the exported identifiers of internal/ that no
// production file references, each with the reason it stays exported. Keys
// are pkg.Name or pkg.Type.Method. TestExportedIdentifiersHaveCallers fails on
// an entry that no longer exists or has gained a production caller, so the
// list only shrinks. Every reason opens with its kind (apiAllowKinds).
var apiAllowlist = map[string]string{
	"tfhe.NewGateKeySet":                   "surface: the §VII-A boolean gates, kept as a public API",
	"tfhe.GateKeySet.AND":                  "surface: a §VII-A boolean gate",
	"tfhe.GateKeySet.NAND":                 "surface: a §VII-A boolean gate",
	"tfhe.GateKeySet.NOT":                  "surface: a §VII-A boolean gate",
	"tfhe.GateKeySet.OR":                   "surface: a §VII-A boolean gate",
	"tfhe.GateKeySet.XOR":                  "surface: a §VII-A boolean gate",
	"tfhe.EncryptBit":                      "surface: the gates' bit encoding",
	"tfhe.DecryptBit":                      "surface: the gates' bit decoding",
	"tfhe.Evaluator.ProgrammableBootstrap": "surface: §VII-A programmable bootstrapping",
	"tfhe.DecodeLWE":                       "surface: decodes a programmable bootstrap's output",
	"tfhe.Evaluator.CMuxInto":              "surface: the CMux gate of Algorithm 2, one step of blind rotation",
	"tfhe.Evaluator.InternalProductRows":   "surface: the §II-B internal product as a list of external products",
	"serve.RejectedError.IsRateLimited":    "surface: lets a client tell a rate limit from a full queue",
	"ckks.Evaluator.AddPlain":              "ckks-op: PtAdd of §II-A, one of the scheme's primitive operations",
	"ckks.Evaluator.InnerSum":              "ckks-op: the rotate-and-add reduction of the LR gradient and ResNet pooling",
	"ckks.Evaluator.EvalChebyshev":         "ckks-op: polynomial evaluation for non-linear functions",
	"ckks.ApproximateChebyshev":            "ckks-op: fits the series EvalChebyshev evaluates",
	"ring.Modulus.MulModBarrettFixed":      "counterfactual: §IV-A reduction family BenchmarkAblationReduction measures",
	"ring.Modulus.MulModShoup":             "counterfactual: §IV-A reduction family BenchmarkAblationReduction measures",
	"ring.Modulus.MulModMontgomery":        "counterfactual: §IV-A Montgomery family whose MForm/MRed steps BenchmarkAblationReduction times",
	"ring.Ring.NTTOnTheFly":                "counterfactual: §IV-D on-the-fly twiddles BenchmarkAblationTwiddles measures",
	"rlwe.KeyGenerator.GenKeySwitchKey":    "counterfactual: the plain key switch BenchmarkAblationGadget measures",
	"rlwe.KeySwitcher.SwitchPolyInto":      "counterfactual: the plain key switch BenchmarkAblationGadget measures",
	"ckks.BootstrapRotations":              "counterfactual: the conventional bootstrap BenchmarkTable8SchemeSwitchSplit measures",
	"ckks.DefaultBootstrapConfig":          "counterfactual: the conventional bootstrap BenchmarkTable8SchemeSwitchSplit measures",
	"ckks.NewBootstrapper":                 "counterfactual: the conventional bootstrap BenchmarkTable8SchemeSwitchSplit measures",
	"ckks.Bootstrapper.Bootstrap":          "counterfactual: the conventional bootstrap BenchmarkTable8SchemeSwitchSplit measures",
	"ckks.Evaluator.Mul":                   "ckks-op: the unrelinearized product, one of the scheme's primitive operations",
	"ckks.Evaluator.Neg":                   "ckks-op: negation, one of the scheme's primitive operations",
	"ckks.Client.Encrypt":                  "test-helper: the ckks tests and the root benchmarks encrypt at the top level with it",
	"obs.Trace.PipelineTotalMs":            "test-helper: the obs, core and cluster trace tests sum the pipeline spans with it",
	"rlwe.MustParameters":                  "test-helper: the rlwe tests and the root benchmarks build parameter sets with it",
	"obs.ParseTrace":                       "test-helper: the cluster and core trace tests decode traces with it",
	"obs.Metrics.GaugeValue":               "test-helper: the serve, cluster and core tests read gauges with it",
	"rlwe.LWESecretKey.HammingWeight":      "test-helper: the rlwe and tfhe tests measure secret density with it",
	"ring.Ring.MulPolyNaive":               "oracle: the schoolbook product the NTT is tested against",
	"ring.SetSIMD":                         "oracle: selects the scalar loops the vector kernels are locked to word for word",
	"rns.Basis.SetBigCoeffs":               "oracle: the big-integer CRT input the RNS conversions are tested against",
	"rlwe.ScaleUpLWE":                      "oracle: the exact lift in the unfused chain the batch LWE key switch is tested against",
	"rlwe.Decryptor.NoiseBits":             "oracle: the coefficient-domain noise referee",
	"ckks.Client.NoiseBits":                "oracle: the slot-domain noise referee",
	"experiments.CurrentGolden":            "oracle: renders the tables the golden-file conformance lock compares",
	"hwsim.ParamSet.BRKWireBlobBytes":      "oracle: the model's key blob size, locked to the tfhe serializer",
	"hwsim.ParamSet.KeyReuse":              "oracle: the model's key-reuse factor, locked to tfhe's batch counters",
}

// apiAllowKinds are the reasons an exported identifier may lack a production
// caller.
var apiAllowKinds = []string{
	"surface",        // public API kept on purpose: the §VII-A gates and PBS, and a few methods
	"ckks-op",        // a CKKS evaluator operation that only tests call
	"counterfactual", // what a root benchmark row measures against the path in use
	"test-helper",    // a helper tests in several packages share, so no _test.go can hold it
	"oracle",         // a reference implementation or conformance lock tests compare against
}

// apiExport is one exported top-level declaration of internal/.
type apiExport struct {
	key string       // pkg.Name or pkg.Type.Method
	obj types.Object // the declared object
	pos string       // file:line of the declaration
}

// apiScan is the result of one pass over a tree: the exports of internal/,
// the packages they were collected from, and every object that a production
// file uses.
type apiScan struct {
	exports  []apiExport
	packages map[string]bool // directories under internal/ holding non-test Go
	used     map[types.Object]bool
}

// apiImporter type-checks the packages of one module tree from source — the
// non-test files that build on this platform — and takes the standard
// library from the toolchain's export data. A package of module path mod
// lives at root/<rest of its import path>; heapmark's bench/ module is thus
// found under the root too.
type apiImporter struct {
	fset *token.FileSet
	root string
	mod  string
	std  types.Importer
	info *types.Info
	pkgs map[string]*types.Package
}

func (im *apiImporter) Import(path string) (*types.Package, error) {
	if pkg, ok := im.pkgs[path]; ok {
		return pkg, nil
	}
	rel, ok := strings.CutPrefix(path, im.mod)
	if !ok || rel != "" && rel[0] != '/' {
		return im.std.Import(path)
	}
	dir := filepath.Join(im.root, filepath.FromSlash(strings.TrimPrefix(rel, "/")))
	bp, err := build.Default.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(im.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	conf := types.Config{Importer: im}
	pkg, err := conf.Check(path, im.fset, files, im.info)
	if err != nil {
		return nil, err
	}
	im.pkgs[path] = pkg
	return pkg, nil
}

// scanAPI type-checks every package with non-test Go files under root's
// internal/, cmd/, examples/ and bench/ directories, and the root package,
// skipping testdata/ and dot-directories. The module path is read from
// root/go.mod.
func scanAPI(root string) (*apiScan, error) {
	gomod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	mod := modfile(gomod)
	fset := token.NewFileSet()
	im := &apiImporter{
		fset: fset, root: root, mod: mod, std: importer.ForCompiler(fset, "gc", nil),
		info: &types.Info{Uses: map[*ast.Ident]types.Object{}, Selections: map[*ast.SelectorExpr]*types.Selection{}},
		pkgs: map[string]*types.Package{},
	}
	s := &apiScan{packages: map[string]bool{}, used: map[types.Object]bool{}}
	var internal []string // import paths of the packages under internal/
	check := func(dir string) error {
		rel, _ := filepath.Rel(root, dir)
		rel = filepath.ToSlash(rel)
		path := mod
		if rel != "." {
			path += "/" + rel
		}
		if _, err := im.Import(path); err != nil {
			return err
		}
		if strings.HasPrefix(rel, "internal/") {
			s.packages[rel] = true
			internal = append(internal, path)
		}
		return nil
	}
	for _, top := range []string{"internal", "cmd", "examples", "bench"} {
		err := filepath.WalkDir(filepath.Join(root, top), func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				if os.IsNotExist(err) && path == filepath.Join(root, top) {
					return filepath.SkipDir
				}
				return err
			}
			if !d.IsDir() {
				return nil
			}
			if path != filepath.Join(root, top) && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			if goFiles, _ := filepath.Glob(filepath.Join(path, "*.go")); slices.ContainsFunc(goFiles, isProductionGo) {
				return check(path)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	if goFiles, _ := filepath.Glob(filepath.Join(root, "*.go")); slices.ContainsFunc(goFiles, isProductionGo) {
		if err := check(root); err != nil {
			return nil, err
		}
	}

	// A use is a use of the generic origin; a method called through an
	// interface is a use of every method that implements it. fmt calls
	// String and Error through fmt.Stringer and error on what it prints.
	viaIface := []*types.Func{types.Universe.Lookup("error").Type().Underlying().(*types.Interface).Method(0)}
	if fmtPkg, err := im.Import("fmt"); err == nil {
		viaIface = append(viaIface, fmtPkg.Scope().Lookup("Stringer").Type().Underlying().(*types.Interface).Method(0))
	}
	for _, obj := range im.info.Uses {
		s.used[origin(obj)] = true
	}
	for _, sel := range im.info.Selections {
		s.used[origin(sel.Obj())] = true
		if fn, ok := sel.Obj().(*types.Func); ok && types.IsInterface(sel.Recv()) {
			viaIface = append(viaIface, fn)
		}
	}
	for _, path := range internal {
		pkg := im.pkgs[path]
		scope := pkg.Scope()
		add := func(key string, obj types.Object) {
			p := fset.Position(obj.Pos())
			rel, _ := filepath.Rel(root, p.Filename)
			s.exports = append(s.exports, apiExport{key: key, obj: obj, pos: fmt.Sprintf("%s:%d", filepath.ToSlash(rel), p.Line)})
		}
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if obj.Exported() {
				add(pkg.Name()+"."+name, obj)
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			for i := range named.NumMethods() {
				m := named.Method(i)
				if !m.Exported() {
					continue
				}
				add(pkg.Name()+"."+name+"."+m.Name(), m)
				if implementsUsed(named, m, viaIface) {
					s.used[m] = true
				}
			}
		}
	}
	sort.Slice(s.exports, func(i, j int) bool { return s.exports[i].key < s.exports[j].key })
	return s, nil
}

// implementsUsed reports whether method m of named implements a method in
// called, the interface methods the scanned code calls: a call through the
// interface may reach m.
func implementsUsed(named *types.Named, m *types.Func, called []*types.Func) bool {
	for _, fn := range called {
		if fn.Name() != m.Name() {
			continue
		}
		iface := fn.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface)
		if types.Implements(named, iface) || types.Implements(types.NewPointer(named), iface) {
			return true
		}
	}
	return false
}

// origin maps an instantiated generic function or field to its declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// isProductionGo reports whether path is a non-test Go file.
func isProductionGo(path string) bool {
	return strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go")
}

// modfile returns the module path a go.mod declares.
func modfile(gomod []byte) string {
	for _, line := range strings.Split(string(gomod), "\n") {
		if mod, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			return strings.TrimSpace(mod)
		}
	}
	return ""
}

// check returns the exports with no production caller that allow does not
// list, and the allow entries that are stale: declared nowhere, or called.
func (s *apiScan) check(allow map[string]string) (uncalled, stale []string) {
	declared := map[string]bool{}
	for _, e := range s.exports {
		declared[e.key] = true
		if s.used[e.obj] {
			if _, ok := allow[e.key]; ok {
				stale = append(stale, e.key+" (has a production caller)")
			}
			continue
		}
		if _, ok := allow[e.key]; !ok {
			uncalled = append(uncalled, e.key+"  "+e.pos)
		}
	}
	for k := range allow {
		if !declared[k] {
			stale = append(stale, k+" (not declared)")
		}
	}
	sort.Strings(stale)
	return uncalled, stale
}

// TestExportedIdentifiersHaveCallers is the API ratchet: every exported
// identifier of internal/ is used by a production file (internal/, cmd/,
// examples/, heap.go or heapmark's bench/), or apiAllowlist says why it stays
// exported. A use is resolved by the type checker, so another object of the
// same name is not a caller, and a method counts as used when a call through
// an interface can reach it. Tests do not count as callers: a name only a
// test calls is either moved into the test's package or deleted.
func TestExportedIdentifiersHaveCallers(t *testing.T) {
	s, err := scanAPI(".")
	if err != nil {
		t.Fatal(err)
	}
	uncalled, stale := s.check(apiAllowlist)
	for _, u := range uncalled {
		t.Errorf("exported without a production caller: %s", u)
	}
	for _, st := range stale {
		t.Errorf("stale allowlist entry: %s", st)
	}
	for k, why := range apiAllowlist {
		kind, reason, _ := strings.Cut(why, ": ")
		if !slices.Contains(apiAllowKinds, kind) || strings.TrimSpace(reason) == "" || strings.Contains(why, "\n") {
			t.Errorf("allowlist entry %s needs a one-line reason of a known kind, got %q", k, why)
		}
	}

	// The scan must not pass by looking at nothing.
	var want []string
	entries, err := os.ReadDir("internal")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		goFiles, _ := filepath.Glob(filepath.Join("internal", e.Name(), "*.go"))
		for _, g := range goFiles {
			if !strings.HasSuffix(g, "_test.go") {
				want = append(want, "internal/"+e.Name())
				break
			}
		}
	}
	for _, p := range want {
		if !s.packages[p] {
			t.Errorf("package %s was not scanned", p)
		}
	}
	t.Logf("scanned %d packages under internal/: %d exports, %d allowlisted", len(s.packages), len(s.exports), len(apiAllowlist))
	if len(want) == 0 || len(s.exports) <= 500 {
		t.Errorf("scanned %d packages and %d exports; want every internal package and more than 500 exports", len(want), len(s.exports))
	}
}

// TestAPIScannerReportsWhatItShould runs the ratchet's scanner over a fixture
// module of two packages, so the real tree's pass cannot be vacuous. A
// caller is a use of the object: a.Spelled, whose name package b spells as
// a field, a string and a local, is still uncalled, while a.U.Via is called
// through an interface b declares.
func TestAPIScannerReportsWhatItShould(t *testing.T) {
	root := t.TempDir()
	write := func(rel, src string) {
		path := filepath.Join(root, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module x\n\ngo 1.22\n")
	write("internal/a/a.go", `package a

type T struct{}

type U struct{}

func Orphan()        {}
func TestOnly()      {}
func Used()          {}
func Listed()        {}
func Spelled()       {}
func (T) Method()    {}
func (U) Via()       {}
func (U) Unreached() {}
`)
	write("internal/a/a_test.go", `package a

import "testing"

func TestA(t *testing.T) { TestOnly(); T{}.Method(); Spelled() }
`)
	write("internal/b/b.go", `package b

import "x/internal/a"

var _ a.T

type S struct{ Spelled int }

type viaer interface{ Via() }

func call(v viaer) { v.Via() }

func F() {
	Spelled := S{}.Spelled + len("Spelled")
	_ = Spelled
	a.Used()
	a.Listed()
	call(a.U{})
}
`)
	write("internal/b/testdata/c.go", `package c

func G() { a.Orphan() }
`)
	s, err := scanAPI(root)
	if err != nil {
		t.Fatal(err)
	}
	uncalled, stale := s.check(map[string]string{"a.Listed": "fixture", "a.Gone": "fixture"})
	var got []string
	for _, u := range uncalled {
		got = append(got, strings.Fields(u)[0])
	}
	want := []string{"a.Orphan", "a.Spelled", "a.T.Method", "a.TestOnly", "a.U.Unreached", "b.F"}
	if !slices.Equal(got, want) {
		t.Errorf("uncalled = %v, want %v", got, want)
	}
	wantStale := []string{"a.Gone (not declared)", "a.Listed (has a production caller)"}
	if !slices.Equal(stale, wantStale) {
		t.Errorf("stale = %v, want %v", stale, wantStale)
	}
	if !s.packages["internal/a"] || !s.packages["internal/b"] || len(s.packages) != 2 {
		t.Errorf("packages = %v, want internal/a and internal/b", s.packages)
	}
}
