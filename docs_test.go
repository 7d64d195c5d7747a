package eba_test

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"unicode"
)

// mdLink matches inline markdown links [text](target). Reference-style
// links and autolinks are out of scope — the repository's docs use
// inline links only.
var mdLink = regexp.MustCompile(`\[[^\]]*\]\(([^)\s]+)\)`)

// TestDocLinks is the docs link check CI runs as part of lint: every
// relative link in README.md and docs/*.md must point at a file that
// exists, and every #anchor — on its own or after a markdown target — at
// a heading of that file, so the documentation cannot silently rot as
// files move and sections are retitled. URLs are skipped.
func TestDocLinks(t *testing.T) {
	files := []string{"README.md"}
	docs, err := filepath.Glob(filepath.Join("docs", "*.md"))
	if err != nil {
		t.Fatal(err)
	}
	if len(docs) == 0 {
		t.Fatal("no docs/*.md found — the documentation moved without updating this check")
	}
	files = append(files, docs...)

	var broken []string
	links, anchored := 0, 0
	for _, file := range files {
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range mdLink.FindAllStringSubmatch(string(data), -1) {
			target := m[1]
			if strings.Contains(target, "://") || strings.HasPrefix(target, "mailto:") {
				continue
			}
			target, anchor, hasAnchor := strings.Cut(target, "#")
			resolved := file
			if target != "" {
				links++
				resolved = filepath.Join(filepath.Dir(file), target)
				if _, err := os.Stat(resolved); err != nil {
					broken = append(broken, fmt.Sprintf("%s: link target %q does not exist", file, target))
					continue
				}
			}
			if !hasAnchor || !strings.HasSuffix(resolved, ".md") {
				continue
			}
			anchored++
			heads, err := headingAnchors(resolved)
			if err != nil {
				t.Fatal(err)
			}
			if !heads[anchor] {
				broken = append(broken, fmt.Sprintf("%s: %s has no heading with anchor #%s", file, resolved, anchor))
			}
		}
	}
	if links == 0 || anchored == 0 {
		t.Fatalf("%d relative links, %d of them anchored — the link extraction regressed", links, anchored)
	}
	for _, b := range broken {
		t.Error(b)
	}
}

// headingAnchors returns the anchors GitHub gives the headings of a
// markdown file: the heading text lowercased, stripped of everything but
// letters, digits, spaces, hyphens and underscores, with spaces turned
// into hyphens, and a repeated anchor suffixed -1, -2, … Lines inside
// fenced code blocks are not headings.
func headingAnchors(file string) (map[string]bool, error) {
	data, err := os.ReadFile(file)
	if err != nil {
		return nil, err
	}
	anchors := make(map[string]bool)
	repeats := make(map[string]int)
	fenced := false
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "```") {
			fenced = !fenced
		}
		text := strings.TrimLeft(line, "#")
		level := len(line) - len(text)
		if fenced || level == 0 || level > 6 || !strings.HasPrefix(text, " ") {
			continue
		}
		slug := strings.Map(func(r rune) rune {
			switch {
			case r == ' ':
				return '-'
			case r == '-' || r == '_' || unicode.IsLetter(r) || unicode.IsDigit(r):
				return unicode.ToLower(r)
			}
			return -1
		}, strings.TrimSpace(text))
		if k := repeats[slug]; k > 0 {
			anchors[fmt.Sprintf("%s-%d", slug, k)] = true
		} else {
			anchors[slug] = true
		}
		repeats[slug]++
	}
	return anchors, nil
}
