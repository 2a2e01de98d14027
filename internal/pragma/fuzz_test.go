package pragma

import (
	"go/ast"
	"go/parser"
	"go/token"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// annotatedLiterals returns every string literal of the named Go files that
// holds a Cascabel annotation: the annotations this package's tests parse and
// the annotated programs of the frontend's and the code generator's tests.
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
				if s, err := strconv.Unquote(lit.Value); err == nil && strings.Contains(s, Prefix) {
					out = append(out, s)
				}
			}
			return true
		})
	}
	return out
}

// FuzzParse feeds Parse arbitrary annotation text, seeded with those literals
// and with every line of them that opens an annotation: Parse never panics,
// and it is deterministic — a second call on the same text gives an equal
// annotation or the same error.
func FuzzParse(f *testing.F) {
	for _, s := range annotatedLiterals(f, "pragma_test.go", "../csrc/csrc_test.go", "../codegen/codegen_test.go") {
		f.Add(s)
		for _, line := range strings.Split(s, "\n") {
			if IsCascabel(line) {
				f.Add(line)
			}
		}
	}
	f.Fuzz(func(t *testing.T, text string) {
		a, err := Parse(text)
		b, err2 := Parse(text)
		if (err == nil) != (err2 == nil) || err != nil && err.Error() != err2.Error() {
			t.Fatalf("%q: errors %v then %v", text, err, err2)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%q: %+v then %+v", text, a, b)
		}
	})
}
