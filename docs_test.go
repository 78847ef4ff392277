package pushdowndb_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// codeSpan is one backticked span of Markdown outside fenced blocks.
var codeSpan = regexp.MustCompile("`([^`\n]+)`")

// docName is a pkg.Name or pkg.Type.Member reference inside a span: a
// lowercase package name, then one or two identifiers, not part of a longer
// dotted path, a snake_case metric name (vec.groupby_mrows_per_s) or a file
// name.
var docName = regexp.MustCompile(`(?:^|[^A-Za-z0-9_.])([a-z][a-z0-9]*)\.([A-Za-z][A-Za-z0-9]*)(?:\.([A-Za-z][A-Za-z0-9]*))?(?:[^A-Za-z0-9_.]|$)`)

// TestDocNamesResolve: every backticked pkg.Name or pkg.Type.Method in
// README.md and docs/ARCHITECTURE.md whose pkg is a package of this module
// names a declaration there (a function, type, variable or constant; a
// method or struct field of a type), so a rename or a deletion cannot leave
// a stale name in the documents.
func TestDocNamesResolve(t *testing.T) {
	decls := moduleDecls(t)
	for _, doc := range []string{"README.md", "docs/ARCHITECTURE.md"} {
		data, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		fenced := false
		for i, line := range strings.Split(string(data), "\n") {
			if strings.HasPrefix(strings.TrimSpace(line), "```") {
				fenced = !fenced
			}
			if fenced {
				continue
			}
			for _, span := range codeSpan.FindAllStringSubmatch(line, -1) {
				for _, m := range docName.FindAllStringSubmatch(span[1], -1) {
					pkg, names := m[1], decls[m[1]]
					if names == nil {
						continue // not this module's package
					}
					name := m[2]
					if m[3] != "" {
						name += "." + m[3]
					}
					if !names[name] {
						t.Errorf("%s:%d: `%s` names %s.%s, which package %s does not declare", doc, i+1, span[1], pkg, name, pkg)
					}
				}
			}
		}
	}
}

// moduleDecls maps each package name of the module (test files included;
// not the bench module) to the names it declares: top-level names, and
// Type.Method and Type.Field.
func moduleDecls(t *testing.T) map[string]map[string]bool {
	t.Helper()
	decls := map[string]map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (path == "bench" || d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := strings.TrimSuffix(f.Name.Name, "_test")
		names := decls[pkg]
		if names == nil {
			names = map[string]bool{}
			decls[pkg] = names
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					names[d.Name.Name] = true
				} else if recv := receiverType(d.Recv.List[0].Type); recv != "" {
					names[recv+"."+d.Name.Name] = true
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						names[s.Name.Name] = true
						if st, ok := s.Type.(*ast.StructType); ok {
							for _, field := range st.Fields.List {
								for _, n := range field.Names {
									names[s.Name.Name+"."+n.Name] = true
								}
							}
						}
					case *ast.ValueSpec:
						for _, n := range s.Names {
							names[n.Name] = true
						}
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return decls
}

// receiverType is the name of a method's receiver type (T, *T, T[P]).
func receiverType(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.StarExpr:
		return receiverType(x.X)
	case *ast.IndexExpr:
		return receiverType(x.X)
	case *ast.IndexListExpr:
		return receiverType(x.X)
	case *ast.Ident:
		return x.Name
	}
	return ""
}
