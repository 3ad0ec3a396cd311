package minic

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// templateVerb matches a fmt verb of a program template, such as
// stencil2d's parameterized tags.
var templateVerb = regexp.MustCompile(`%\[\d+\]s`)

// repoPrograms collects the MiniHPC sources of the repository's
// examples (the raw string literals holding a pragma in
// examples/*/main.go, a template's verbs filled with 0) and testdata
// (every .c file under a testdata directory).
func repoPrograms(t *testing.T) map[string]string {
	t.Helper()
	progs := map[string]string{}
	mains, _ := filepath.Glob("../../examples/*/main.go")
	for _, path := range mains {
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			lit, ok := n.(*ast.BasicLit)
			if ok && lit.Kind == token.STRING && strings.HasPrefix(lit.Value, "`") {
				if src, _ := strconv.Unquote(lit.Value); strings.Contains(src, "#pragma omp") {
					if templateVerb.MatchString(src) {
						src = strings.ReplaceAll(templateVerb.ReplaceAllString(src, "0"), "%%", "%")
					}
					progs[fset.Position(lit.Pos()).String()] = src
				}
			}
			return true
		})
	}
	cs, _ := filepath.Glob("../../testdata/*.c")
	more, _ := filepath.Glob("../*/testdata/*.c")
	cs = append(cs, more...)
	for _, path := range cs {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		progs[path] = string(src)
	}
	if len(mains) == 0 || len(cs) == 0 {
		t.Fatalf("found %d examples and %d testdata programs", len(mains), len(cs))
	}
	return progs
}

// Every node under a pragma clause reports the pragma's own line, in
// every example and testdata program.
func TestPragmaClauseNodesCarryPragmaLine(t *testing.T) {
	clauses := 0
	for name, src := range repoPrograms(t) {
		prog, err := Parse(src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		Walk(prog, func(n Node) bool {
			o, ok := n.(*OmpStmt)
			if !ok {
				return true
			}
			for _, e := range []Expr{o.NumThreads, o.Chunk} {
				if e == nil {
					continue
				}
				clauses++
				Walk(e, func(x Node) bool {
					if x.Pos() != o.Line {
						t.Errorf("%s: clause node %T at line %d under the pragma on line %d", name, x, x.Pos(), o.Line)
					}
					return true
				})
			}
			return true
		})
	}
	if clauses == 0 {
		t.Fatal("no clause expression in any example or testdata program")
	}
}
