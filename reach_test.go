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

// unreachedAllowed names the exported declarations under internal/ that
// no non-test file uses and that stay anyway, each with its reason. A
// key is "pkg.Name" or "pkg.Type.Method"; a type's key also covers its
// methods and its New<Type> constructor.
var unreachedAllowed = map[string]string{
	"vfs.Faulty":               "the disk fault seam of seven packages' tests",
	"server.ServeListener":     "testnet's connection seam",
	"expr.MustCompile":         "a helper of other packages' tests",
	"val.MustFromAny":          "a helper of other packages' tests",
	"val.Value.Any":            "the oracle of FuzzMarshalResult",
	"repl.Follower.Cursor":     "a probe of the root package's replication tests",
	"repl.Follower.WaitCursor": "a probe of the root package's replication tests",
	"journal.Miner.Mine":       "used by the root bench_test.go experiment",
	"core.Engine.Watches":      "a probe of TestRegistrationsAcrossRestart (ROADMAP item 11)",
	"ws.Conn.NetConn":          "used by the gateway's tests",
	"wal.WAL.Checkpoint":       "ROADMAP item 10 wires it",
	"server.BlockOnFull":       "the named zero value of Overflow",
}

// testHarnesses are the internal/ packages that exist for tests alone;
// CI's "Product reach" step requires that nothing but tests import
// them, so their exports have no product caller by design.
var testHarnesses = map[string]bool{
	"internal/raceflag": true,
	"internal/testnet":  true,
}

// exportedDecl is one exported declaration under internal/.
type exportedDecl struct {
	key   string     // pkg.Name or pkg.Type.Method
	name  string     // the identifier a caller would write
	typ   string     // the receiver type, or for a type its own name
	ident *ast.Ident // the declaring identifier
	pos   token.Position
}

// TestProductReachBySymbol fails on any exported top-level func, var,
// const or type, or exported method of an exported type, declared in a
// non-test file under internal/ (test harnesses aside), whose name is
// an identifier in no non-test .go file of the module other than at its
// own declaration. examples/ and bench/ count as callers: the root
// package re-exports the embedded API for a downstream application.
// The match is by name, so it can miss dead code, and what it reports
// nothing names outside tests.
func TestProductReachBySymbol(t *testing.T) {
	fset := token.NewFileSet()
	var files []*ast.File
	var decls []exportedDecl
	declared := make(map[*ast.Ident]bool) // a declaration is not a use
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
		files = append(files, f)
		if dir := filepath.ToSlash(filepath.Dir(path)); strings.HasPrefix(dir, "internal/") {
			for _, d := range exportedDecls(fset, f) {
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
		t.Fatal("found no exported declarations under internal/")
	}

	used := make(map[string]bool)
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !declared[id] {
				used[id.Name] = true
			}
			return true
		})
	}

	allowUsed := make(map[string]bool)
	var unreached []string
	for _, d := range decls {
		if used[d.name] {
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
// exported methods of its exported types.
func exportedDecls(fset *token.FileSet, f *ast.File) []exportedDecl {
	pkg := f.Name.Name
	var out []exportedDecl
	add := func(id *ast.Ident, key, typ string) {
		out = append(out, exportedDecl{key: key, name: id.Name, typ: typ, ident: id, pos: fset.Position(id.Pos())})
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
