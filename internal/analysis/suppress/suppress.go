// Package suppress implements the contract analyzers' escape-hatch
// comments. A diagnostic is suppressed by a //eba:<kind>-ok comment on
// the exact line it would be reported on — either a trailing comment on
// that line or a full-line comment of its own on that line (not the
// line above).
// A suppression that suppresses nothing is itself a diagnostic: stale
// escape hatches rot into silent blanket waivers, so the analyzer
// rejects them the moment the code they excused goes away.
package suppress

import (
	"go/token"
	"strings"

	"golang.org/x/tools/go/analysis"
)

// Directive is one suppression comment found in the package.
type Directive struct {
	Pos  token.Pos // position of the comment
	File string
	Line int
	used bool
}

// Set holds the package's suppression directives for one comment kind.
type Set struct {
	marker     string
	directives []*Directive
}

// Collect scans every file in the pass for //eba:<kind>-ok comments.
// Text after the marker (a rationale) is allowed: "//eba:foo-ok: the
// map is a singleton" still suppresses.
func Collect(pass *analysis.Pass, kind string) *Set {
	marker := "//eba:" + kind + "-ok"
	s := &Set{marker: marker}
	for _, f := range pass.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(c.Text)
				if text != marker && !strings.HasPrefix(text, marker+" ") && !strings.HasPrefix(text, marker+":") {
					continue
				}
				p := pass.Fset.Position(c.Pos())
				s.directives = append(s.directives, &Directive{
					Pos:  c.Pos(),
					File: p.Filename,
					Line: p.Line,
				})
			}
		}
	}
	return s
}

// Suppressed reports whether a diagnostic at pos is excused by a
// directive on the same line of the same file, and marks that
// directive as used.
func (s *Set) Suppressed(fset *token.FileSet, pos token.Pos) bool {
	p := fset.Position(pos)
	hit := false
	for _, d := range s.directives {
		if d.File == p.Filename && d.Line == p.Line {
			d.used = true
			hit = true
		}
	}
	return hit
}

// ReportStale diagnoses every directive that suppressed nothing. Call
// it after the analyzer has visited all its reporting sites.
func (s *Set) ReportStale(pass *analysis.Pass) {
	for _, d := range s.directives {
		if !d.used {
			pass.Reportf(d.Pos, "stale %s suppression: no diagnostic on this line to suppress", s.marker)
		}
	}
}
