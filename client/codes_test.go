package client

import (
	"go/ast"
	"go/parser"
	"go/token"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestKnownCodesMatchServer holds knownCodes to the server's taxonomy:
// the string values of the code* constants in internal/server/errors.go.
// A code on one side only would leave Error.Code empty for its replies.
func TestKnownCodesMatchServer(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "../internal/server/errors.go", nil, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	server := make(map[string]bool)
	for _, decl := range f.Decls {
		d, ok := decl.(*ast.GenDecl)
		if !ok || d.Tok != token.CONST {
			continue
		}
		for _, spec := range d.Specs {
			s := spec.(*ast.ValueSpec)
			for i, id := range s.Names {
				if !strings.HasPrefix(id.Name, "code") || i >= len(s.Values) {
					continue
				}
				lit, ok := s.Values[i].(*ast.BasicLit)
				if !ok || lit.Kind != token.STRING {
					t.Fatalf("%s is not a string literal", id.Name)
				}
				code, err := strconv.Unquote(lit.Value)
				if err != nil {
					t.Fatal(err)
				}
				server[code] = true
			}
		}
	}
	if len(server) == 0 {
		t.Fatal("found no code* constants in internal/server/errors.go")
	}
	var missing, extra []string
	for code := range server {
		if !knownCodes[code] {
			missing = append(missing, code)
		}
	}
	for code := range knownCodes {
		if !server[code] {
			extra = append(extra, code)
		}
	}
	sort.Strings(missing)
	sort.Strings(extra)
	if len(missing)+len(extra) > 0 {
		t.Fatalf("knownCodes lacks the server's %q and has %q, which the server does not send", missing, extra)
	}
	t.Logf("%d codes on each side", len(server))
}
