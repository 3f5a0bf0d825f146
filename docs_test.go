package nrp

import (
	"go/scanner"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestDocsLinks walks every markdown file in the repository and checks
// that relative links resolve: the target file must exist, and when the
// link carries a #fragment, the target must contain a heading that
// slugs to it (GitHub's anchor rule: lowercase, drop everything that is
// not a letter, digit, space or hyphen, then spaces to hyphens). The
// docs under docs/ cross-link each other and the README heavily; this
// keeps a rename or a heading edit from silently breaking them. Go
// comments are held to the same rule: every *.md name a comment cites
// must exist, relative to the Go file's directory or to the repository
// root.
func TestDocsLinks(t *testing.T) {
	var files, goFiles []string
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		switch ext := filepath.Ext(path); {
		case strings.EqualFold(ext, ".md"):
			files = append(files, path)
		case ext == ".go":
			goFiles = append(goFiles, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no markdown files found")
	}
	for _, f := range goFiles {
		for _, ref := range commentDocRefs(t, f) {
			if !fileExists(filepath.Join(filepath.Dir(f), ref)) && !fileExists(ref) {
				t.Errorf("%s: comment cites %s, which does not exist", f, ref)
			}
		}
	}

	anchors := make(map[string]map[string]bool, len(files))
	contents := make(map[string][]byte, len(files))
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		contents[f] = raw
		anchors[f] = headingAnchors(string(raw))
	}

	linkRe := regexp.MustCompile(`\]\(([^()\s]+)\)`)
	for _, f := range files {
		for _, m := range linkRe.FindAllStringSubmatch(string(contents[f]), -1) {
			link := m[1]
			if strings.Contains(link, "://") || strings.HasPrefix(link, "mailto:") {
				continue
			}
			target, frag, _ := strings.Cut(link, "#")
			resolved := f
			if target != "" {
				resolved = filepath.Join(filepath.Dir(f), target)
				if _, err := os.Stat(resolved); err != nil {
					t.Errorf("%s: link %q: target does not exist", f, link)
					continue
				}
			}
			if frag == "" {
				continue
			}
			set, ok := anchors[resolved]
			if !ok {
				// Fragment into a non-markdown file (e.g. a source
				// file); existence is all we can check.
				continue
			}
			if !set[frag] {
				t.Errorf("%s: link %q: no heading in %s slugs to #%s", f, link, resolved, frag)
			}
		}
	}
}

var mdRef = regexp.MustCompile(`[\w./-]*\w\.md\b`)

// commentDocRefs returns every *.md name cited in a comment of a Go file.
func commentDocRefs(t *testing.T, path string) []string {
	t.Helper()
	src, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	var s scanner.Scanner
	s.Init(fset.AddFile(path, -1, len(src)), src, nil, scanner.ScanComments)
	var refs []string
	for {
		_, tok, lit := s.Scan()
		if tok == token.EOF {
			return refs
		}
		if tok == token.COMMENT {
			refs = append(refs, mdRef.FindAllString(lit, -1)...)
		}
	}
}

func fileExists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}

// headingAnchors returns the set of GitHub anchor slugs for a markdown
// document's headings. Fenced code blocks are skipped so a commented
// shell line starting with # is not mistaken for a heading.
func headingAnchors(doc string) map[string]bool {
	slugs := make(map[string]bool)
	inFence := false
	for _, line := range strings.Split(doc, "\n") {
		trimmed := strings.TrimSpace(line)
		if strings.HasPrefix(trimmed, "```") {
			inFence = !inFence
			continue
		}
		if inFence || !strings.HasPrefix(trimmed, "#") {
			continue
		}
		text := strings.TrimLeft(trimmed, "#")
		if text == "" || !strings.HasPrefix(text, " ") {
			continue
		}
		slug := slugify(strings.TrimSpace(text))
		// Duplicate headings get -1, -2, ... suffixes on GitHub; links
		// here only ever point at the first occurrence.
		if !slugs[slug] {
			slugs[slug] = true
		}
	}
	return slugs
}

var nonSlug = regexp.MustCompile(`[^\p{L}\p{N} \-]`)

func slugify(heading string) string {
	s := strings.ToLower(heading)
	s = strings.ReplaceAll(s, "`", "")
	s = nonSlug.ReplaceAllString(s, "")
	return strings.ReplaceAll(s, " ", "-")
}
