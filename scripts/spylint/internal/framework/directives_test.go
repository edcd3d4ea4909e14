package framework

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

func collect(t *testing.T, src string) (*token.FileSet, *directiveIndex) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "fix.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	return fset, collectDirectives(fset, []*ast.File{f})
}

var known = map[string]bool{"detrand": true, "resetcomplete": true}

func TestDirectiveGrammarProblems(t *testing.T) {
	src := `package p

//spylint:allow
var a int

//spylint:allow nosuch because reasons
var b int

//spylint:allow detrand
var c int

//spylint:frobnicate
var d int

//spylint:allow detrand a perfectly fine reason
var e int

//spylint:hotpath
func f() {}
`
	_, ix := collect(t, src)
	probs := ix.problems(known)
	wantSubstrings := []string{
		"needs an analyzer name",
		"unknown analyzer nosuch",
		"needs a reason",
		"unknown //spylint: directive kind frobnicate",
	}
	if len(probs) != len(wantSubstrings) {
		t.Fatalf("got %d problems, want %d: %v", len(probs), len(wantSubstrings), probs)
	}
	for i, want := range wantSubstrings {
		if !strings.Contains(probs[i].Message, want) {
			t.Errorf("problem %d = %q, want substring %q", i, probs[i].Message, want)
		}
	}
}

func TestDirectiveAllowPlacement(t *testing.T) {
	src := `package p

//spylint:allow detrand the line below is exempt
var a int

var b int //spylint:allow detrand same-line works too

var c int
`
	_, ix := collect(t, src)
	pos := func(line int) token.Position {
		return token.Position{Filename: "fix.go", Line: line}
	}
	if !ix.allowed("detrand", pos(4)) {
		t.Error("line-above directive did not suppress line 4")
	}
	if !ix.allowed("detrand", pos(6)) {
		t.Error("same-line directive did not suppress line 6")
	}
	if ix.allowed("detrand", pos(8)) {
		t.Error("undirected line 8 is suppressed")
	}
	if ix.allowed("resetcomplete", pos(4)) {
		t.Error("directive for detrand suppressed resetcomplete")
	}
}

func TestHasHotpathDirective(t *testing.T) {
	src := `package p

// Hot is a hot-path root.
//
//spylint:hotpath
func Hot() []int { return nil }

// Plain does not.
func Plain() []int { return nil }
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "fix.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	var got []bool
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok {
			got = append(got, HasHotpathDirective(fd))
		}
	}
	if len(got) != 2 || !got[0] || got[1] {
		t.Errorf("HasHotpathDirective = %v, want [true false]", got)
	}
}
