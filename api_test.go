package heap

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
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
	"core.Bootstrapper.MeasuredBRKBytes":   "surface: the measured key size that cross-checks hwsim's formula",
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
	"obs.ParseTrace":                       "test-helper: the cluster and core trace tests decode traces with it",
	"obs.Metrics.GaugeValue":               "test-helper: the serve, cluster and core tests read gauges with it",
	"rlwe.LWESecretKey.HammingWeight":      "test-helper: the rlwe and tfhe tests measure secret density with it",
	"ring.Ring.MulPolyNaive":               "oracle: the schoolbook product the NTT is tested against",
	"ring.SetSIMD":                         "oracle: selects the scalar loops the vector kernels are locked to word for word",
	"rns.Basis.SetBigCoeffs":               "oracle: the big-integer CRT input the RNS conversions are tested against",
	"rlwe.ScaleUpLWE":                      "oracle: the exact lift in the unfused chain the batch LWE key switch is tested against",
	"rlwe.Decryptor.NoiseBits":             "oracle: the coefficient-domain noise referee",
	"rlwe.Repacker.Merge":                  "oracle: the serial merge tree the collector and BenchmarkRepack are held to",
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
	key  string // pkg.Name or pkg.Type.Method
	name string // the identifier a caller spells
	pos  string // file:line of the declaration
}

// apiScan is the result of one pass over a tree: the exports of internal/,
// the packages they were collected from, and every identifier name that a
// production file spells outside a declaration of its own.
type apiScan struct {
	exports  []apiExport
	packages map[string]bool // directories under internal/ holding non-test Go
	refs     map[string]bool
}

// scanAPI parses every non-test .go file under root's internal/, cmd/,
// examples/ and bench/ directories and root/heap.go, skipping testdata/ and
// dot-directories. Build tags are ignored: a file for another platform
// still calls what it names.
func scanAPI(root string) (*apiScan, error) {
	s := &apiScan{packages: map[string]bool{}, refs: map[string]bool{}}
	fset := token.NewFileSet()
	var files []*ast.File
	var inInternal []bool
	parse := func(path string) error {
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files = append(files, f)
		rel, _ := filepath.Rel(root, path)
		internal := strings.HasPrefix(filepath.ToSlash(rel), "internal/")
		inInternal = append(inInternal, internal)
		if internal {
			s.packages[filepath.ToSlash(filepath.Dir(rel))] = true
		}
		return nil
	}
	for _, dir := range []string{"internal", "cmd", "examples", "bench"} {
		err := filepath.WalkDir(filepath.Join(root, dir), func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				if os.IsNotExist(err) && path == filepath.Join(root, dir) {
					return filepath.SkipDir
				}
				return err
			}
			if d.IsDir() {
				if path != filepath.Join(root, dir) && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
					return filepath.SkipDir
				}
				return nil
			}
			if strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
				return parse(path)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	if _, err := os.Stat(filepath.Join(root, "heap.go")); err == nil {
		if err := parse(filepath.Join(root, "heap.go")); err != nil {
			return nil, err
		}
	}

	// Declaration names and receiver types are not references.
	skip := map[*ast.Ident]bool{}
	for i, f := range files {
		pkg := f.Name.Name
		add := func(id *ast.Ident, key string) {
			skip[id] = true
			if inInternal[i] && id.IsExported() {
				p := fset.Position(id.Pos())
				rel, _ := filepath.Rel(root, p.Filename)
				s.exports = append(s.exports, apiExport{key: key, name: id.Name, pos: fmt.Sprintf("%s:%d", filepath.ToSlash(rel), p.Line)})
			}
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					add(d.Name, pkg+"."+d.Name.Name)
					continue
				}
				recv := receiverIdent(d.Recv.List[0].Type)
				if recv == nil {
					continue
				}
				skip[recv] = true
				add(d.Name, pkg+"."+recv.Name+"."+d.Name.Name)
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch sp := spec.(type) {
					case *ast.TypeSpec:
						add(sp.Name, pkg+"."+sp.Name.Name)
					case *ast.ValueSpec:
						for _, id := range sp.Names {
							add(id, pkg+"."+id.Name)
						}
					}
				}
			}
		}
	}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !skip[id] {
				s.refs[id.Name] = true
			}
			return true
		})
	}
	sort.Slice(s.exports, func(i, j int) bool { return s.exports[i].key < s.exports[j].key })
	return s, nil
}

// receiverIdent is the type name of a method receiver: T, *T, T[P] or *T[P].
func receiverIdent(x ast.Expr) *ast.Ident {
	for {
		switch t := x.(type) {
		case *ast.StarExpr:
			x = t.X
		case *ast.IndexExpr:
			x = t.X
		case *ast.IndexListExpr:
			x = t.X
		case *ast.Ident:
			return t
		default:
			return nil
		}
	}
}

// check returns the exports with no production caller that allow does not
// list, and the allow entries that are stale: declared nowhere, or called.
func (s *apiScan) check(allow map[string]string) (uncalled, stale []string) {
	declared := map[string]bool{}
	for _, e := range s.exports {
		declared[e.key] = true
		if s.refs[e.name] {
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
// identifier of internal/ is referenced from a production file (internal/,
// cmd/, examples/, heap.go or heapmark's bench/), or apiAllowlist says why it
// stays exported. Tests do not count as callers: a name only a test calls is
// either moved into the test's package unexported or deleted.
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
// tree of two packages, so the real tree's pass cannot be vacuous.
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
	write("internal/a/a.go", `package a

type T struct{}

func Orphan() {}
func TestOnly() {}
func Used() {}
func Listed() {}
func (T) Method() {}
`)
	write("internal/a/a_test.go", `package a

import "testing"

func TestA(t *testing.T) { TestOnly(); T{}.Method() }
`)
	write("internal/b/b.go", `package b

import "x/internal/a"

var _ a.T

func F() { a.Used(); a.Listed() }
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
	want := []string{"a.Orphan", "a.T.Method", "a.TestOnly", "b.F"}
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
