package rta_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// testOnlyExports are exported functions in internal/ that only tests call,
// each kept on purpose.
var testOnlyExports = map[string]string{
	"randsys.*":            "random-system corpus shared by the differential tests of every engine",
	"curve.Availability":   "Theorem 3 availability, the spp tests' check that exact service never oversubscribes a processor",
	"experiments.Sweep":    "one-panel sweep behind the experiments tests and the root figure benchmarks",
	"cpa.Analyze":          "holistic baseline of experiment E3, run by BenchmarkExtensionCPAComparison",
	"search.WorstResponse": "simulation-found lower bound the soundness-hunt tests compare bounds against",
}

// TestNoUncalledExports keeps the internal API from regrowing unused surface.
// Every exported top-level function in internal/ must be referenced, outside
// tests, either as pkg.Name from another package (the module, its commands
// and examples, and the bench/ module) or as a bare identifier in its own
// package. Selector names do not count: res.WorstResponse is not a use of
// search.WorstResponse. Every unexported top-level function, in any
// package, must likewise be referenced by its own package's non-test files;
// a helper only tests need belongs in a _test.go file. No type checker is
// involved, so methods are not covered.
func TestNoUncalledExports(t *testing.T) {
	type file struct {
		dir string
		f   *ast.File
	}
	var files []file
	pkgName := map[string]string{} // dir -> package name
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(p))
		files = append(files, file{dir, f})
		pkgName[dir] = f.Name.Name
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	type export struct{ dir, name string }
	declared := map[export]bool{}
	declaredLocal := map[export]bool{} // unexported, any package
	used := map[export]bool{}
	for _, fl := range files {
		// Local import name -> directory of the imported package.
		imports := map[string]string{}
		for _, is := range fl.f.Imports {
			p, _ := strconv.Unquote(is.Path.Value)
			if p != "rta" && !strings.HasPrefix(p, "rta/") {
				continue
			}
			dir := strings.TrimPrefix(strings.TrimPrefix(p, "rta"), "/")
			if dir == "" {
				dir = "."
			}
			name := pkgName[dir]
			if is.Name != nil {
				name = is.Name.Name
			}
			imports[name] = dir
		}
		// Identifiers that name something rather than refer to it.
		skip := map[*ast.Ident]bool{}
		ast.Inspect(fl.f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				skip[n.Name] = true
				switch name := n.Name.Name; {
				case n.Recv != nil:
				case n.Name.IsExported():
					if strings.HasPrefix(fl.dir, "internal/") {
						declared[export{fl.dir, name}] = true
					}
				case name != "main" && name != "init" && name != "_":
					declaredLocal[export{fl.dir, name}] = true
				}
			case *ast.SelectorExpr:
				skip[n.Sel] = true
				if x, ok := n.X.(*ast.Ident); ok {
					if dir, ok := imports[x.Name]; ok {
						used[export{dir, n.Sel.Name}] = true
					}
				}
			case *ast.Field:
				for _, id := range n.Names {
					skip[id] = true
				}
			case *ast.KeyValueExpr:
				if id, ok := n.Key.(*ast.Ident); ok {
					skip[id] = true
				}
			case *ast.Ident:
				if !skip[n] {
					used[export{fl.dir, n.Name}] = true
				}
			}
			return true
		})
	}

	var uncalled []string
	for e := range declared {
		pkg := path.Base(e.dir)
		if used[e] || testOnlyExports[pkg+"."+e.name] != "" || testOnlyExports[pkg+".*"] != "" {
			continue
		}
		uncalled = append(uncalled, e.dir+"."+e.name)
	}
	sort.Strings(uncalled)
	for _, u := range uncalled {
		t.Errorf("%s is exported but nothing outside tests calls it: delete it, or add it to testOnlyExports with a reason", u)
	}

	var unreferenced []string
	for e := range declaredLocal {
		if !used[e] {
			unreferenced = append(unreferenced, e.dir+"."+e.name)
		}
	}
	sort.Strings(unreferenced)
	for _, u := range unreferenced {
		t.Errorf("%s is unexported and nothing in its package outside tests references it: delete it, or move it into a _test.go file", u)
	}

	// An allow-list entry must still name an exported function that only
	// tests call.
	for entry := range testOnlyExports {
		pkg, name, _ := strings.Cut(entry, ".")
		found := false
		for e := range declared {
			if path.Base(e.dir) != pkg || (name != "*" && e.name != name) {
				continue
			}
			found = true
			if name != "*" && used[e] {
				t.Errorf("testOnlyExports: %s is called outside tests; drop the entry", entry)
			}
		}
		if !found {
			t.Errorf("testOnlyExports: %s names no exported function in internal/", entry)
		}
	}
}
