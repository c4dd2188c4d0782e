package eventdb

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// unreachedAllowed names the exported declarations under internal/ and
// client/ that no non-test file uses and that stay anyway, each with its
// reason. A key is "pkg.Name" or "pkg.Type.Method"; a type's key also
// covers its methods and its New<Type> constructor. A client entry names
// the product use that keeps it and the test that covers it.
var unreachedAllowed = map[string]string{
	"vfs.Faulty":               "the disk fault seam of seven packages' tests",
	"server.ServeListener":     "testnet's connection seam",
	"val.MustFromAny":          "a helper of other packages' tests",
	"repl.Follower.WaitCursor": "a probe of the root package's replication tests",
	"journal.Miner.Mine":       "used by the root bench_test.go experiment",
	"core.Engine.Watches":      "the tests' probe of the watch registry, which Register and Unregister keep (TestRegistrationsAcrossRestart, TestWatchScheduler)",
	"ws.Conn.NetConn":          "used by the gateway's tests",
	"ws.Dial":                  "the client side of the gateway's and ws's own WebSocket tests",
	"wal.WAL.Checkpoint":       "ROADMAP item 10 wires it",
	"server.BlockOnFull":       "the named zero value of Overflow",
	"pubsub.Broker.Rebind":     "the string form of Bind's filter swap, which the rebind tests pin",
	"client.Conn.Consume":      "the polling form of DurableSubscribe, the client half of CONSUME (TestConsumePull)",
	"client.Conn.DropTrigger":  "the inverse of Trigger, which examples call (TestWireDatabaseRoundTrip, TestDatabaseVerbs)",
	"client.Conn.Unwatch":      "the inverse of Watch, which examples call (TestWireDatabaseRoundTrip, TestDatabaseVerbs)",
	"client.RequireLeader":     "routes a writer to the leader of a replicated pair (TestDialRequireLeaderRoutesToLeader)",
	"client.WithFallbacks":     "the candidate list RequireLeader routes over (TestDialRequireLeaderRoutesToLeader)",
	"client.WithRetry":         "the reconnecting PUBT-dedupe client (TestChaosDiskFaultDegradedRecover, TestChaosKillReconnectResume)",
	"client.Retry.Reconnects":  "the reconnect count of WithRetry's supervisor (TestChaosKillReconnectResume)",
	"client.JoinSpec":          "the type of QuerySpec's Join field, a SELECT join (TestSelectRepliesReuse)",
	"client.OrderSpec":         "the type of QuerySpec's Order field (TestSelectWireRoundTrip)",
	"client.Sum":               "a CQ aggregate kind beside Count and Avg, which examples use (TestIncrementalMatchesRecompute)",
	"client.Min":               "a CQ aggregate kind beside Count and Avg, which examples use (TestIncrementalMatchesRecompute)",
	"client.Max":               "a CQ aggregate kind beside Count and Avg, which examples use (TestIncrementalMatchesRecompute)",
	"client.TimeWindow":        "the CQ window kind beside CountWindow, which examples use (TestTimeWindow)",
}

// testHarnesses are the internal/ packages that exist for tests alone;
// CI's "Product reach" step requires that nothing but tests import
// them, so their exports have no product caller by design.
var testHarnesses = map[string]bool{
	"internal/raceflag": true,
	"internal/testnet":  true,
}

// exportedDecl is one exported declaration under internal/ or client/.
type exportedDecl struct {
	key    string     // pkg.Name or pkg.Type.Method
	name   string     // the identifier a caller would write
	typ    string     // the receiver type, or for a type its own name
	method bool       // a method, matched by name
	dir    string     // its package's directory, as "internal/x" or "client"
	ident  *ast.Ident // the declaring identifier
	pos    token.Position
}

// TestProductReachBySymbol fails on any exported top-level func, var,
// const or type, or exported method of an exported type, declared in a
// non-test file under internal/ (test harnesses aside) or client/, that
// no non-test .go file of the module uses. A package-level declaration is
// used through a selector on an import of its own package (x.Name), or
// by its bare name in a file of that package; a method by its name
// anywhere. examples/ and bench/ count as callers: the root package
// re-exports the embedded API for a downstream application. The check
// is syntactic: a method is matched by name, and an import's name by
// its spelling, so it can miss dead code, and what it reports nothing
// reaches outside tests. Type-checking the module instead (go/types
// with go/importer's source importer) takes over ten seconds, too slow
// for the tier-1 suite.
func TestProductReachBySymbol(t *testing.T) {
	fset := token.NewFileSet()
	type file struct {
		ast *ast.File
		dir string
	}
	var files []file
	var decls []exportedDecl
	declared := make(map[*ast.Ident]bool) // a declaration is not a use
	pkgName := make(map[string]string)    // directory → package name
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		files = append(files, file{f, dir})
		pkgName[dir] = f.Name.Name
		if strings.HasPrefix(dir, "internal/") || dir == "client" {
			for _, d := range exportedDecls(fset, f, dir) {
				declared[d.ident] = true
				if !testHarnesses[dir] {
					decls = append(decls, d)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(decls) == 0 {
		t.Fatal("found no exported declarations under internal/ or client/")
	}

	named := make(map[string]bool) // every identifier, for methods
	used := make(map[string]bool)  // "internal/x.Name" for the rest
	for _, f := range files {
		imports := make(map[string]string) // local name → directory
		for _, imp := range f.ast.Imports {
			dir, ok := strings.CutPrefix(strings.Trim(imp.Path.Value, `"`), "eventdb/")
			if !ok {
				continue
			}
			name := pkgName[dir]
			if imp.Name != nil {
				name = imp.Name.Name
			}
			imports[name] = dir
		}
		var visit func(n ast.Node) bool
		visit = func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.SelectorExpr: // x.Sel is a field or a method, or a name of an import
				named[x.Sel.Name] = true
				if id, ok := x.X.(*ast.Ident); ok && imports[id.Name] != "" {
					used[imports[id.Name]+"."+x.Sel.Name] = true
				} else {
					ast.Inspect(x.X, visit)
				}
				return false
			case *ast.Ident:
				if !declared[x] {
					named[x.Name] = true
					used[f.dir+"."+x.Name] = true
				}
			}
			return true
		}
		ast.Inspect(f.ast, visit)
	}

	allowUsed := make(map[string]bool)
	var unreached []string
	for _, d := range decls {
		if d.method && named[d.name] || !d.method && used[d.dir+"."+d.name] {
			continue
		}
		if key := allowKey(d); key != "" {
			allowUsed[key] = true
			continue
		}
		unreached = append(unreached, d.key+" ("+d.pos.String()+")")
	}
	sort.Strings(unreached)
	for _, u := range unreached {
		t.Errorf("no non-test caller: %s", u)
	}
	for key := range unreachedAllowed {
		if !allowUsed[key] {
			t.Errorf("allowlist entry %s matches no unreached declaration; delete it", key)
		}
	}
}

// allowKey returns the allowlist entry that covers d, or "".
func allowKey(d exportedDecl) string {
	pkg := d.key[:strings.IndexByte(d.key, '.')]
	for _, key := range []string{d.key, pkg + "." + d.typ} {
		if _, ok := unreachedAllowed[key]; ok {
			return key
		}
	}
	return ""
}

// exportedDecls lists f's exported top-level declarations and the
// exported methods of its exported types; dir is f's directory.
func exportedDecls(fset *token.FileSet, f *ast.File, dir string) []exportedDecl {
	pkg := f.Name.Name
	var out []exportedDecl
	add := func(id *ast.Ident, key, typ string) {
		out = append(out, exportedDecl{key: key, name: id.Name, typ: typ, method: strings.Count(key, ".") == 2,
			dir: dir, ident: id, pos: fset.Position(id.Pos())})
	}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if !d.Name.IsExported() {
				continue
			}
			if d.Recv == nil {
				add(d.Name, pkg+"."+d.Name.Name, strings.TrimPrefix(d.Name.Name, "New"))
				continue
			}
			if recv := receiverType(d.Recv.List[0].Type); ast.IsExported(recv) {
				add(d.Name, pkg+"."+recv+"."+d.Name.Name, recv)
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() {
						add(s.Name, pkg+"."+s.Name.Name, s.Name.Name)
					}
				case *ast.ValueSpec:
					for _, id := range s.Names {
						if id.IsExported() {
							add(id, pkg+"."+id.Name, "")
						}
					}
				}
			}
		}
	}
	return out
}

// receiverType is the name of a method's receiver type: T for T, *T,
// T[P] and *T[P].
func receiverType(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}
