package hic

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// citedDocs are the documents whose test and benchmark names must stay
// current.
var citedDocs = []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", "bench/README.md", ".claude/skills/verify/SKILL.md"}

var (
	testFuncRE = regexp.MustCompile(`(?m)^func ((?:Benchmark|Test|Fuzz|Example)\w*)\(`)
	citedRE    = regexp.MustCompile(`\b(?:Benchmark|Test|Fuzz|Example)[A-Z0-9_]\w*`)
	// patternRE matches a go test -run, -bench or -fuzz pattern, quoted
	// or up to the next space or backtick.
	patternRE = regexp.MustCompile("-(?:run|bench|fuzz)[=\\s]+('[^']*'|\"[^\"]*\"|[^\\s`]+)")
)

// TestDocsCiteExistingTests: every Benchmark, Test, Fuzz or Example name
// that the documents cite must name a function in some _test.go file of
// the repository, so deleting or renaming one fails here until the
// documents follow. Inside a -run, -bench or -fuzz pattern a name may
// instead be a prefix of one (-run TestEnumerat).
func TestDocsCiteExistingTests(t *testing.T) {
	var defined []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && path != "." && strings.HasPrefix(d.Name(), "."):
			return filepath.SkipDir
		case !strings.HasSuffix(path, "_test.go"):
			return nil
		}
		src, err := os.ReadFile(path)
		for _, m := range testFuncRE.FindAllSubmatch(src, -1) {
			defined = append(defined, string(m[1]))
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	exists := func(name string, prefixOK bool) bool {
		for _, d := range defined {
			if d == name || prefixOK && strings.HasPrefix(d, name) {
				return true
			}
		}
		return false
	}
	for _, doc := range citedDocs {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, loc := range citedRE.FindAllIndex(text, -1) {
			name := string(text[loc[0]:loc[1]])
			if !exists(name, inPattern(text, loc[0])) {
				t.Errorf("%s:%d cites %s, which no _test.go defines", doc, 1+strings.Count(string(text[:loc[0]]), "\n"), name)
			}
		}
	}
}

// inPattern reports whether offset at of text lies inside a go test
// -run, -bench or -fuzz pattern.
func inPattern(text []byte, at int) bool {
	for _, loc := range patternRE.FindAllSubmatchIndex(text, -1) {
		if loc[2] <= at && at < loc[3] {
			return true
		}
	}
	return false
}
