package owan

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestMakefileRunNamesExist checks every `go test -run` pattern in the
// Makefile: each |-separated alternative must match a func Test… in one of
// the packages that command lists. go test passes silently on a -run regex
// that matches nothing, so without this a renamed or deleted test would
// drop out of its make target unnoticed.
func TestMakefileRunNamesExist(t *testing.T) {
	raw, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatalf("not running at the module root: %v", err)
	}
	// Join backslash continuations so each recipe command is one line.
	text := strings.ReplaceAll(string(raw), "\\\n", " ")
	runRe := regexp.MustCompile(`-run '([^']*)'`)
	testRe := regexp.MustCompile(`(?m)^func (Test\w+)\(`)
	checked := 0
	for _, line := range strings.Split(text, "\n") {
		m := runRe.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		// make turns $$ into $; '^$' selects no test on purpose (benchmarks).
		pattern := strings.ReplaceAll(m[1], "$$", "$")
		if pattern == "^$" {
			continue
		}
		var pkgs, tests []string
		for _, f := range strings.Fields(line) {
			if f != "." && !strings.HasPrefix(f, "./") {
				continue
			}
			pkgs = append(pkgs, f)
			files, err := filepath.Glob(filepath.Join(f, "*_test.go"))
			if err != nil {
				t.Fatal(err)
			}
			for _, file := range files {
				src, err := os.ReadFile(file)
				if err != nil {
					t.Fatal(err)
				}
				for _, fm := range testRe.FindAllStringSubmatch(string(src), -1) {
					tests = append(tests, fm[1])
				}
			}
		}
		if len(pkgs) == 0 {
			t.Errorf("Makefile -run %q names no package", pattern)
		}
		for _, alt := range strings.Split(pattern, "|") {
			re, err := regexp.Compile(alt)
			if err != nil {
				t.Errorf("Makefile -run alternative %q: %v", alt, err)
				continue
			}
			found := false
			for _, name := range tests {
				if re.MatchString(name) {
					found = true
					break
				}
			}
			if !found {
				t.Errorf("Makefile -run alternative %q matches no func Test… in %v", alt, pkgs)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("found no -run pattern in the Makefile; the parser is out of date")
	}
}
