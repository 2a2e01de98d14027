package csrc

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strconv"
	"strings"
	"testing"

	"repro/internal/pragma"
)

// annotatedLiterals returns every string literal of the named Go files that
// holds a Cascabel annotation: the annotated programs the frontend's and the
// code generator's tests parse.
func annotatedLiterals(f *testing.F, files ...string) []string {
	var out []string
	fset := token.NewFileSet()
	for _, name := range files {
		file, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			f.Fatal(err)
		}
		ast.Inspect(file, func(n ast.Node) bool {
			if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.STRING {
				if s, err := strconv.Unquote(lit.Value); err == nil && strings.Contains(s, pragma.Prefix) {
					out = append(out, s)
				}
			}
			return true
		})
	}
	return out
}

// FuzzParseProgram feeds the frontend arbitrary source, seeded with those
// annotated programs: ParseProgram never panics, and for any source it
// accepts, Print's output parses again and prints back unchanged — Print ∘
// ParseProgram is a fixed point of its own output.
func FuzzParseProgram(f *testing.F) {
	for _, src := range annotatedLiterals(f, "csrc_test.go", "../codegen/codegen_test.go") {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := ParseProgram(src)
		if err != nil {
			return
		}
		first := prog.Print()
		again, err := ParseProgram(first)
		if err != nil {
			t.Fatalf("Print's output does not parse: %v\n--- source ---\n%q\n--- printed ---\n%q", err, src, first)
		}
		if second := again.Print(); second != first {
			t.Fatalf("Print is not a fixed point of its own output:\n--- first ---\n%q\n--- second ---\n%q", first, second)
		}
	})
}
