package doclint

import (
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// linkRE matches inline markdown links/images: [text](target).
var linkRE = regexp.MustCompile(`\]\(([^)\s]+)\)`)

// TestMarkdownLinksResolve walks every markdown file of the repository and
// fails on intra-repo links whose target file does not exist. External
// (http/https/mailto) links and pure #anchors are skipped — this is a
// breakage gate for the docs cross-references, not a web crawler.
func TestMarkdownLinksResolve(t *testing.T) {
	root := repoRoot()
	var files []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			switch d.Name() {
			case ".git", "testdata", "node_modules":
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(d.Name(), ".md") {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no markdown files found — wrong repo root?")
	}
	for _, file := range files {
		b, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range linkRE.FindAllStringSubmatch(string(b), -1) {
			target := m[1]
			if strings.HasPrefix(target, "http://") || strings.HasPrefix(target, "https://") ||
				strings.HasPrefix(target, "mailto:") || strings.HasPrefix(target, "#") {
				continue
			}
			// Strip an anchor suffix; resolve relative to the linking file.
			if i := strings.IndexByte(target, '#'); i >= 0 {
				target = target[:i]
			}
			if target == "" {
				continue
			}
			resolved := filepath.Join(filepath.Dir(file), target)
			if _, err := os.Stat(resolved); err != nil {
				rel, _ := filepath.Rel(root, file)
				t.Errorf("%s: broken link %q (resolved %s)", rel, m[1], resolved)
			}
		}
	}
}

// mdNameRE matches a markdown file named in running text, with or without
// a directory in front.
var mdNameRE = regexp.MustCompile(`[A-Za-z0-9_./-]+\.md\b`)

// TestGoCommentsNameExistingDocs fails on a Go comment that sends the reader
// to a markdown file nobody has written. A name resolves against the
// repository root, the Go file's own directory, or docs/.
func TestGoCommentsNameExistingDocs(t *testing.T) {
	root := repoRoot()
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			switch d.Name() {
			case ".git", "testdata", "node_modules":
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(d.Name(), ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return err
		}
		for _, cg := range f.Comments {
			for _, name := range mdNameRE.FindAllString(cg.Text(), -1) {
				found := false
				for _, base := range []string{root, filepath.Dir(path), filepath.Join(root, "docs")} {
					if _, err := os.Stat(filepath.Join(base, name)); err == nil {
						found = true
						break
					}
				}
				if !found {
					t.Errorf("%s: comment names %s, which does not exist", fset.Position(cg.Pos()), name)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
