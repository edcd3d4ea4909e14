// Directive handling: the `//spylint:` comment grammar.
//
//	//spylint:allow <analyzer> <reason>   suppress <analyzer> findings
//	                                      on this line or the next
//	//spylint:hotpath                     (in a func's doc comment)
//	                                      the function and everything
//	                                      it calls intra-module must be
//	                                      allocation-free; see the
//	                                      hotalloc analyzer
//
// A reason is mandatory on allow directives: an exemption nobody can
// explain is a finding in itself.
package framework

import (
	"go/ast"
	"go/token"
	"strings"
)

const directivePrefix = "//spylint:"

// directive is one parsed //spylint: comment.
type directive struct {
	kind     string // "allow" or "hotpath"
	analyzer string // allow only
	reason   string // allow only
	pos      token.Position
}

type directiveIndex struct {
	// byFileLine holds allow directives keyed by file then line.
	byFileLine map[string]map[int][]directive
	all        []directive
}

// collectDirectives parses every //spylint: comment in files.
func collectDirectives(fset *token.FileSet, files []*ast.File) *directiveIndex {
	ix := &directiveIndex{byFileLine: map[string]map[int][]directive{}}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := c.Text
				if !strings.HasPrefix(text, directivePrefix) {
					continue
				}
				rest := strings.TrimPrefix(text, directivePrefix)
				fields := strings.Fields(rest)
				d := directive{pos: fset.Position(c.Pos())}
				if len(fields) > 0 {
					d.kind = fields[0]
				}
				if d.kind == "allow" {
					if len(fields) > 1 {
						d.analyzer = fields[1]
					}
					if len(fields) > 2 {
						d.reason = strings.Join(fields[2:], " ")
					}
					m := ix.byFileLine[d.pos.Filename]
					if m == nil {
						m = map[int][]directive{}
						ix.byFileLine[d.pos.Filename] = m
					}
					m[d.pos.Line] = append(m[d.pos.Line], d)
				}
				ix.all = append(ix.all, d)
			}
		}
	}
	return ix
}

// allowed reports whether an allow directive for analyzer sits on the
// diagnostic's line or the line directly above it.
func (ix *directiveIndex) allowed(analyzer string, pos token.Position) bool {
	m := ix.byFileLine[pos.Filename]
	if m == nil {
		return false
	}
	for _, line := range []int{pos.Line, pos.Line - 1} {
		for _, d := range m[line] {
			if d.analyzer == analyzer && d.reason != "" {
				return true
			}
		}
	}
	return false
}

// problems validates directive grammar: every directive must have a
// known kind, and allow directives need a known analyzer plus a
// non-empty reason.
func (ix *directiveIndex) problems(knownAnalyzers map[string]bool) []Diagnostic {
	var out []Diagnostic
	bad := func(d directive, msg string) {
		out = append(out, Diagnostic{Analyzer: "directive", Pos: d.pos, Message: msg})
	}
	for _, d := range ix.all {
		switch d.kind {
		case "hotpath":
			// no operands
		case "allow":
			switch {
			case d.analyzer == "":
				bad(d, "malformed directive: //spylint:allow needs an analyzer name and a reason")
			case !knownAnalyzers[d.analyzer]:
				bad(d, "unknown analyzer "+d.analyzer+" in //spylint:allow directive")
			case d.reason == "":
				bad(d, "//spylint:allow "+d.analyzer+" needs a reason: exemptions must say why")
			}
		default:
			bad(d, "unknown //spylint: directive kind "+d.kind+" (want allow or hotpath)")
		}
	}
	return out
}

// HasHotpathDirective reports whether fn's doc comment carries a
// //spylint:hotpath line, declaring the function a hot-path root that
// the hotalloc analyzer must prove allocation-free.
func HasHotpathDirective(fn *ast.FuncDecl) bool { return hasDocDirective(fn, "hotpath") }

func hasDocDirective(fn *ast.FuncDecl, kind string) bool {
	if fn.Doc == nil {
		return false
	}
	for _, c := range fn.Doc.List {
		if strings.TrimSpace(c.Text) == directivePrefix+kind {
			return true
		}
	}
	return false
}
