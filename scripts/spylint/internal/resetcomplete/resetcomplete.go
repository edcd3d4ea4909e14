// Package resetcomplete guards the machine-pooling invariant: a
// pooled object's Reset must rewind every piece of state its
// constructor establishes, or trials leak state into each other and
// the golden byte-identity tests fail long after the cause is
// obvious. For every named struct type with a pointer-receiver Reset
// (or Reseed, the RNG spelling) method, the analyzer requires each
// struct field to be either
//
//   - mutated somewhere in the reset method (assigned, cleared,
//     receiver of a method call, address-taken, or — for collections —
//     ranged over with the element mutated), including through helper
//     methods on the same receiver; or
//   - explicitly exempted with `//spylint:allow resetcomplete <reason>`
//     on the field's declaration line (construction-time constants,
//     synchronization primitives).
//
// Adding a struct field without extending Reset then fails the lint
// instead of becoming a pooling heisenbug.
//
// Checkpoint/restore is held to the same rule: a type with a
// pointer-receiver copyFrom, CopyFrom or Restore method must touch
// every field there too, under the same exemptions. A field the copy
// misses would keep the restored object's own stale value.
package resetcomplete

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"

	"spylint/internal/framework"
)

var Analyzer = &framework.Analyzer{
	Name: "resetcomplete",
	Doc:  "every struct field of a type with a Reset/Reseed (or copyFrom/CopyFrom/Restore) method must be covered by it or explicitly exempted",
	Run:  run,
}

// check is one completeness rule: the method names that make a type
// subject to it, in preference order (a type with several is judged by
// the first alone), and how a missed field is reported.
type check struct {
	names []string
	// verb and effect fill "field T.f is not <verb> by M; <effect>";
	// effect's %s is the type name.
	verb, effect string
}

var checks = []check{
	{names: []string{"Reset", "Reseed"}, verb: "reset",
		effect: "a pooled %s would leak it across trials — reset it"},
	{names: []string{"copyFrom", "CopyFrom", "Restore"}, verb: "copied",
		effect: "a restored %s would keep its own stale value — copy it"},
}

func run(pass *framework.Pass) {
	// Index every method declared on a named type in this package.
	methods := map[string]map[string]*ast.FuncDecl{} // type name -> method name -> decl
	for _, file := range pass.Files {
		if strings.HasSuffix(pass.Fset.Position(file.Pos()).Filename, "_test.go") {
			continue
		}
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || len(fd.Recv.List) != 1 {
				continue
			}
			tname := recvTypeName(fd.Recv.List[0].Type)
			if tname == "" {
				continue
			}
			if methods[tname] == nil {
				methods[tname] = map[string]*ast.FuncDecl{}
			}
			methods[tname][fd.Name.Name] = fd
		}
	}

	for tname, ms := range methods {
		for _, ck := range checks {
			checkType(pass, tname, ms, ck)
		}
	}
}

// checkType applies one rule to the named type with methods ms.
func checkType(pass *framework.Pass, tname string, ms map[string]*ast.FuncDecl, ck check) {
	var fn *ast.FuncDecl
	for _, name := range ck.names {
		if ms[name] != nil {
			fn = ms[name]
			break
		}
	}
	if fn == nil || fn.Body == nil {
		return
	}
	// Only pointer receivers can mutate anything.
	if _, ok := fn.Recv.List[0].Type.(*ast.StarExpr); !ok {
		return
	}
	obj, ok := pass.Pkg.Scope().Lookup(tname).(*types.TypeName)
	if !ok {
		return
	}
	st, ok := obj.Type().Underlying().(*types.Struct)
	if !ok {
		return
	}
	c := &coverage{pass: pass, methods: ms, covered: map[string]bool{}, visited: map[*ast.FuncDecl]bool{}}
	c.walkMethod(fn)
	if c.all {
		return
	}
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		if f.Name() == "_" || c.covered[f.Name()] {
			continue
		}
		pass.Reportf(f.Pos(),
			"field %s.%s is not %s by %s; %s or exempt it with //spylint:allow resetcomplete <reason>",
			tname, f.Name(), ck.verb, fn.Name.Name, fmt.Sprintf(ck.effect, tname))
	}
}

// recvTypeName unwraps a receiver type expression to its base name.
func recvTypeName(expr ast.Expr) string {
	for {
		switch e := expr.(type) {
		case *ast.StarExpr:
			expr = e.X
		case *ast.IndexExpr: // generic receiver T[P]
			expr = e.X
		case *ast.IndexListExpr:
			expr = e.X
		case *ast.Ident:
			return e.Name
		default:
			return ""
		}
	}
}

// coverage walks a reset method (and same-receiver helpers it calls)
// recording which receiver fields are mutated.
type coverage struct {
	pass    *framework.Pass
	methods map[string]*ast.FuncDecl
	covered map[string]bool
	visited map[*ast.FuncDecl]bool
	all     bool // *recv = ... assigns every field
}

func (c *coverage) walkMethod(fd *ast.FuncDecl) {
	if c.visited[fd] || fd.Body == nil {
		return
	}
	c.visited[fd] = true
	if len(fd.Recv.List[0].Names) != 1 {
		return // unnamed receiver: nothing can be covered
	}
	recv := c.pass.Info.Defs[fd.Recv.List[0].Names[0]]
	if recv == nil {
		return
	}
	c.walkBody(fd.Body, recv)
}

// walkBody scans one body for mutations rooted at root (the receiver,
// or a range-element variable standing in for a field).
func (c *coverage) walkBody(body ast.Node, root types.Object) {
	mark := func(field string, isRoot bool) {
		if isRoot {
			c.all = true // *recv = T{...} rewrites every field
		} else if field != "" {
			c.covered[field] = true
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				mark(c.rootField(lhs, root))
			}
		case *ast.IncDecStmt:
			mark(c.rootField(n.X, root))
		case *ast.UnaryExpr:
			if n.Op.String() == "&" {
				if f, _ := c.rootField(n.X, root); f != "" {
					c.covered[f] = true
				}
			}
		case *ast.CallExpr:
			c.call(n, root)
		case *ast.RangeStmt:
			c.rangeStmt(n, root)
		}
		return true
	})
}

// call handles mutation through calls: builtins that write their
// argument, method calls on a field, and helper methods on the same
// receiver (recursed into).
func (c *coverage) call(n *ast.CallExpr, root types.Object) {
	switch fun := n.Fun.(type) {
	case *ast.Ident:
		// Builtins that mutate their first argument.
		if (fun.Name == "clear" || fun.Name == "delete" || fun.Name == "copy") && len(n.Args) > 0 {
			if f, _ := c.rootField(n.Args[0], root); f != "" {
				c.covered[f] = true
			}
		}
	case *ast.SelectorExpr:
		if f, isRoot := c.rootField(fun.X, root); f != "" {
			// recv.field.Method(...): the method can rewind the field.
			c.covered[f] = true
		} else if isRoot {
			// recv.helper(...): recurse into same-type helper methods
			// so Reset may delegate (Flush, ResetStats, ...).
			if helper := c.methods[fun.Sel.Name]; helper != nil {
				c.walkMethod(helper)
			}
		}
	}
}

// rangeStmt covers the `for i, d := range recv.f { d.Reset(...) }`
// idiom: the field is covered when the range element is mutated.
func (c *coverage) rangeStmt(n *ast.RangeStmt, root types.Object) {
	f, _ := c.rootField(n.X, root)
	if f == "" || c.covered[f] {
		return
	}
	val, ok := n.Value.(*ast.Ident)
	if !ok || val.Name == "_" {
		return
	}
	elem := c.pass.Info.Defs[val]
	if elem == nil {
		return
	}
	before := c.all
	sub := &coverage{pass: c.pass, methods: map[string]*ast.FuncDecl{}, covered: map[string]bool{}, visited: map[*ast.FuncDecl]bool{}}
	sub.walkBody(n.Body, elem)
	// Any mutation through the element variable counts: a method call
	// on it, taking its address, assigning through it.
	if sub.all || len(sub.covered) > 0 || sub.elementMutated(n.Body, elem) {
		c.covered[f] = true
	}
	c.all = before
}

// elementMutated reports whether v is used as a method-call receiver
// inside body — for pointer elements (e.g. []*Device) a call like
// d.Reset(...) mutates the pointee without any selector-field shape.
func (c *coverage) elementMutated(body ast.Node, v types.Object) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if id, ok := sel.X.(*ast.Ident); ok && c.pass.Info.Uses[id] == v {
			found = true
			return false
		}
		return true
	})
	return found
}

// rootField resolves expr to (fieldName, false) when it is rooted at
// root via a selector (root.f, root.f[i], *root.f, root.f.g, ...), or
// ("", true) when expr IS root (possibly via * / parens) — the
// *recv = value whole-struct form.
func (c *coverage) rootField(expr ast.Expr, root types.Object) (string, bool) {
	field := ""
	for {
		switch e := expr.(type) {
		case *ast.ParenExpr:
			expr = e.X
		case *ast.StarExpr:
			expr = e.X
		case *ast.IndexExpr:
			expr = e.X
		case *ast.SliceExpr:
			expr = e.X
		case *ast.SelectorExpr:
			field = e.Sel.Name
			expr = e.X
		case *ast.Ident:
			obj := c.pass.Info.Uses[e]
			if obj == nil {
				obj = c.pass.Info.Defs[e]
			}
			if obj != root {
				return "", false
			}
			if field == "" {
				return "", true
			}
			return field, false
		default:
			return "", false
		}
	}
}
