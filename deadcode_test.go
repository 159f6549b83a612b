package owan

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// liveAllow names the declarations that are live although no production
// code reaches them by name: methods the standard library calls through an
// interface, a wire constant, and fixtures that other packages' tests import
// (a _test.go file is visible to its own package only). A key "pkg.Name" or
// "pkg.Type.Method" (pkg is the import path) keeps that declaration; a key
// ".Method" keeps every method of that name whose type is live.
var liveAllow = map[string]string{
	".String":        "fmt calls it through fmt.Stringer",
	".MarshalJSON":   "encoding/json calls it through json.Marshaler (Network.WriteTo)",
	".UnmarshalJSON": "encoding/json calls it through json.Unmarshaler (ReadNetwork)",

	"owan/internal/controlplane.ErrCodeInternal": "wire error code of the protocol (PROTOCOL.md) that clients must recognize",

	"owan/internal/alloc.GreedySequential":        "no-tier ablation allocator, benchmarked by the root package's tests",
	"owan/internal/core.Owan.SetUnitRegenWeights": "regenerator-weight ablation, benchmarked by the root package's tests",
	"owan/internal/graph.Graph.ShortestDistances": "Dijkstra reference for the optical and topology packages' tests",
	"owan/internal/topology.RandomTopology":       "random-topology fixture for the core and root packages' tests",
	"owan/internal/topology.LinkSet.Equal":        "topology equality used by the tests of most packages",
	"owan/internal/update.Planner.Previous":       "planner state the controlplane tests compare across a successor",
}

// TestEveryDeclHasACaller keeps the tree free of code that no program
// reaches: every top-level declaration outside test files must be reachable
// by name from a main or init in the module, cmd/, examples/ or bench/, or
// from liveAllow. Test-only helpers belong in _test.go files.
func TestEveryDeclHasACaller(t *testing.T) {
	if _, err := os.Stat("go.mod"); err != nil {
		t.Fatalf("not running at the module root: %v", err)
	}
	if len(liveAllow) > 15 {
		t.Errorf("liveAllow has %d entries; keep it to 15", len(liveAllow))
	}
	idx, err := indexDecls(".", false)
	if err != nil {
		t.Fatal(err)
	}
	for key := range liveAllow {
		if !idx.allowMatches(key) {
			t.Errorf("liveAllow entry %q names no declaration", key)
		}
	}
	for _, d := range idx.dead(liveAllow) {
		t.Errorf("%s: %s has no production caller", d.pos, d.key)
	}
}

// TestDeadCodeScannerFixture shows that the scanner catches each kind of
// dead code: a func nothing calls, a func only a test calls, and a func only
// a dead func calls. Everything else in the fixture is reached from main.
func TestDeadCodeScannerFixture(t *testing.T) {
	idx, err := indexDecls(filepath.Join("testdata", "deadcode"), false)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, d := range idx.dead(nil) {
		got = append(got, d.key)
	}
	want := []string{"fixture/lib.OnlyDeadCalls", "fixture/lib.OnlyTestCalls", "fixture/lib.Unused"}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("dead declarations in the fixture: got %v, want %v", got, want)
	}
}

// TestDocsReferToTree checks every backticked `pkg.Name` and
// `pkg.Type.Member` in the top-level documents whose pkg names a package of
// the module: the name must be declared there (test files and struct fields
// included), so a deleted or renamed identifier cannot linger in the prose.
func TestDocsReferToTree(t *testing.T) {
	idx, err := indexDecls(".", true)
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"} {
		raw, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, bad := range idx.unresolvedDocRefs(string(raw), &checked) {
			t.Errorf("%s:%s", doc, bad)
		}
	}
	if checked < 20 {
		t.Fatalf("checked only %d references; the pattern is out of date", checked)
	}
}

// TestDocsReferToTreeCatchesMutation runs the documentation check on a line
// that names a deleted function, beside lines that resolve.
func TestDocsReferToTreeCatchesMutation(t *testing.T) {
	idx, err := indexDecls(".", true)
	if err != nil {
		t.Fatal(err)
	}
	text := "`core.New` and `topology.LinkSet.Key()` and `sim.Config.PlanUpdates`\n" +
		"`optical.State.ProvisionEffective` and `graph.MaxMatching`\n" +
		"`alloc.throughput_us` is a metric, `graph.go` a file\n"
	checked := 0
	got := idx.unresolvedDocRefs(text, &checked)
	want := []string{"2: `optical.State.ProvisionEffective` is not declared", "2: `graph.MaxMatching` is not declared"}
	if strings.Join(got, "|") != strings.Join(want, "|") || checked != 5 {
		t.Fatalf("got %q (%d checked), want %q (5 checked)", got, checked, want)
	}
}

// declIndex holds every top-level declaration of the Go files under a root,
// with the names each one mentions.
type declIndex struct {
	decls   []*declInfo
	byKey   map[string][]*declInfo // "path.Name" or "path.Type.Method"
	methods map[string][]*declInfo // method name → methods of that name
	// pkgNames maps the package clause name of non-test files to the
	// import paths that use it, and members a path to the names it declares
	// (methods and struct fields both as "Type.Name" and as the bare name,
	// the shorthand prose uses), for the documentation check.
	pkgNames map[string]map[string]bool
	members  map[string]map[string]bool
}

type declInfo struct {
	key, pos string
	recv     string   // the receiver type's key, for a method
	method   string   // the method's name
	root     bool     // a main or init
	refs     []string // keys of same-package or imported names it mentions
	calls    []string // method or field names it selects on a value
}

var moduleRe = regexp.MustCompile(`(?m)^module\s+(\S+)`)

// indexDecls parses every .go file under root, skipping testdata, and test
// files unless withTests. A directory's import path is the module path of
// the nearest go.mod above it plus the path below that go.mod, so a nested
// module (bench/) is read as files of its own module.
func indexDecls(root string, withTests bool) (*declIndex, error) {
	idx := &declIndex{
		byKey:    map[string][]*declInfo{},
		methods:  map[string][]*declInfo{},
		pkgNames: map[string]map[string]bool{},
		members:  map[string]map[string]bool{},
	}
	modules := map[string]string{} // directory → module path
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			if raw, err := os.ReadFile(filepath.Join(path, "go.mod")); err == nil {
				if m := moduleRe.FindSubmatch(raw); m != nil {
					modules[path] = string(m[1])
				}
			}
			return nil
		}
		isTest := strings.HasSuffix(path, "_test.go")
		if !strings.HasSuffix(path, ".go") || (isTest && !withTests) {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		idx.addFile(fset, f, importPath(modules, filepath.Dir(path)), isTest)
		return nil
	})
	return idx, err
}

// importPath is dir's import path under the nearest enclosing module.
func importPath(modules map[string]string, dir string) string {
	for d, rel := dir, ""; ; {
		if mod, ok := modules[d]; ok {
			return strings.TrimSuffix(mod+"/"+rel, "/")
		}
		parent := filepath.Dir(d)
		if parent == d {
			return dir
		}
		rel = strings.TrimPrefix(filepath.ToSlash(filepath.Join(filepath.Base(d), rel)), ".")
		d = parent
	}
}

func (idx *declIndex) addFile(fset *token.FileSet, f *ast.File, pkg string, isTest bool) {
	if idx.members[pkg] == nil {
		idx.members[pkg] = map[string]bool{}
	}
	if !isTest {
		if idx.pkgNames[f.Name.Name] == nil {
			idx.pkgNames[f.Name.Name] = map[string]bool{}
		}
		idx.pkgNames[f.Name.Name][pkg] = true
	}
	imports := map[string]string{} // local name → import path
	for _, im := range f.Imports {
		p := strings.Trim(im.Path.Value, `"`)
		local := p[strings.LastIndex(p, "/")+1:]
		if im.Name != nil {
			local = im.Name.Name
		}
		imports[local] = p
	}
	add := func(d *declInfo, node ast.Node, at token.Pos) {
		p := fset.Position(at)
		d.pos = filepath.ToSlash(p.Filename) + ":" + strconv.Itoa(p.Line)
		ast.Inspect(node, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok {
					if path, ok := imports[x.Name]; ok {
						d.refs = append(d.refs, path+"."+n.Sel.Name)
						return false
					}
				}
				d.calls = append(d.calls, n.Sel.Name)
			case *ast.Ident:
				d.refs = append(d.refs, pkg+"."+n.Name)
			}
			return true
		})
		idx.decls = append(idx.decls, d)
		idx.byKey[d.key] = append(idx.byKey[d.key], d)
		idx.members[pkg][strings.TrimPrefix(d.key, pkg+".")] = true
		if d.method != "" {
			idx.members[pkg][d.method] = true
			idx.methods[d.method] = append(idx.methods[d.method], d)
		}
	}
	for _, decl := range f.Decls {
		switch decl := decl.(type) {
		case *ast.FuncDecl:
			d := &declInfo{key: pkg + "." + decl.Name.Name}
			if decl.Recv != nil {
				recv := receiverName(decl.Recv.List[0].Type)
				d.recv, d.method = pkg+"."+recv, decl.Name.Name
				d.key = d.recv + "." + decl.Name.Name
			} else {
				d.root = decl.Name.Name == "init" || (decl.Name.Name == "main" && f.Name.Name == "main")
			}
			add(d, decl, decl.Name.Pos())
		case *ast.GenDecl:
			for _, spec := range decl.Specs {
				switch spec := spec.(type) {
				case *ast.TypeSpec:
					add(&declInfo{key: pkg + "." + spec.Name.Name}, spec, spec.Name.Pos())
					if st, ok := spec.Type.(*ast.StructType); ok {
						for _, field := range st.Fields.List {
							for _, fn := range field.Names {
								idx.members[pkg][spec.Name.Name+"."+fn.Name] = true
								idx.members[pkg][fn.Name] = true
							}
						}
					}
				case *ast.ValueSpec:
					// Each name of a spec carries the whole spec's
					// references: its type and every value.
					for _, n := range spec.Names {
						if n.Name == "_" {
							continue
						}
						add(&declInfo{key: pkg + "." + n.Name}, spec, n.Pos())
					}
				}
			}
		}
	}
}

func receiverName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.StarExpr:
		return receiverName(e.X)
	case *ast.IndexExpr:
		return receiverName(e.X)
	case *ast.IndexListExpr:
		return receiverName(e.X)
	case *ast.Ident:
		return e.Name
	}
	return ""
}

func (idx *declIndex) allowMatches(key string) bool {
	if strings.HasPrefix(key, ".") {
		return len(idx.methods[key[1:]]) > 0
	}
	return len(idx.byKey[key]) > 0
}

// dead marks live, to a fixed point, everything reachable by name from the
// roots and allow, and returns the rest sorted by key. A method is reached
// when live code selects its name on some value and its receiver type is
// live; a method name selected on a value marks every such method, since
// the scan has no types.
func (idx *declIndex) dead(allow map[string]string) []*declInfo {
	live := map[*declInfo]bool{}
	called := map[string]bool{}
	var queue []*declInfo
	mark := func(d *declInfo) {
		if !live[d] {
			live[d] = true
			queue = append(queue, d)
		}
	}
	for _, d := range idx.decls {
		if d.root {
			mark(d)
		}
	}
	for key := range allow {
		if strings.HasPrefix(key, ".") {
			called[key[1:]] = true
		}
		for _, d := range idx.byKey[key] {
			mark(d)
		}
	}
	for {
		for len(queue) > 0 {
			d := queue[0]
			queue = queue[1:]
			for _, r := range d.refs {
				for _, t := range idx.byKey[r] {
					mark(t)
				}
			}
			for _, c := range d.calls {
				called[c] = true
			}
		}
		// Methods whose name live code selects, once their type is live.
		for name := range called {
			for _, m := range idx.methods[name] {
				if !live[m] && anyLive(live, idx.byKey[m.recv]) {
					mark(m)
				}
			}
		}
		if len(queue) == 0 {
			break
		}
	}
	var out []*declInfo
	for _, d := range idx.decls {
		if !live[d] {
			out = append(out, d)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].key < out[j].key })
	return out
}

func anyLive(live map[*declInfo]bool, ds []*declInfo) bool {
	for _, d := range ds {
		if live[d] {
			return true
		}
	}
	return false
}

// docRefRe matches a backticked `pkg.Name` or `pkg.Type.Member`, optionally
// followed by a call's parentheses.
var docRefRe = regexp.MustCompile("`([a-z][a-z0-9]*)\\.([A-Za-z][A-Za-z0-9_]*)(\\.[A-Za-z][A-Za-z0-9_]*)?(\\([^`]*\\))?`")

// unresolvedDocRefs reports, by line, each reference in text to a module
// package that does not resolve, and counts the references it checked.
// Metric and trace-phase names (snake_case, such as `alloc.throughput_us`)
// and file names (`graph.go`) are not Go names and are skipped.
func (idx *declIndex) unresolvedDocRefs(text string, checked *int) []string {
	var bad []string
	for i, line := range strings.Split(text, "\n") {
		for _, m := range docRefRe.FindAllStringSubmatch(line, -1) {
			pkg, name := m[1], m[2]+m[3]
			paths := idx.pkgNames[pkg]
			if len(paths) == 0 || pkg == "main" || strings.Contains(name, "_") || m[2] == "go" || m[2] == "md" {
				continue
			}
			*checked++
			found := false
			for p := range paths {
				found = found || idx.members[p][name]
			}
			if !found {
				bad = append(bad, strconv.Itoa(i+1)+": `"+pkg+"."+name+"` is not declared")
			}
		}
	}
	return bad
}
