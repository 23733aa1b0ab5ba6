package mvee

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var (
	runList  = regexp.MustCompile(`go test .*-run '([^']*)'(.*)`)
	testFunc = regexp.MustCompile(`(?m)^func (Test\w+)\(`)
)

// staleRunNames returns each alternative of a `go test -run '…'` list in
// the workflow text that matches no `func Test…` in that step's packages.
// `-run` regexes are unanchored, so an alternative may name a prefix of
// several tests; `^$` (run no tests) is skipped.
func staleRunNames(t *testing.T, workflow string) []string {
	t.Helper()
	var stale []string
	for _, line := range strings.Split(workflow, "\n") {
		m := runList.FindStringSubmatch(line)
		if m == nil || m[1] == "^$" {
			continue
		}
		var names []string
		for _, pkg := range strings.Fields(m[2]) {
			if strings.HasPrefix(pkg, "./") {
				names = append(names, testNames(t, pkg)...)
			}
		}
		for _, alt := range strings.Split(m[1], "|") {
			re := regexp.MustCompile(strings.SplitN(alt, "/", 2)[0])
			found := false
			for _, n := range names {
				if re.MatchString(n) {
					found = true
					break
				}
			}
			if !found {
				stale = append(stale, alt)
			}
		}
	}
	return stale
}

// testNames lists the test functions of the package in directory pkg.
func testNames(t *testing.T, pkg string) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(pkg, "*_test.go"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no test files in %s (%v)", pkg, err)
	}
	var names []string
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range testFunc.FindAllStringSubmatch(string(src), -1) {
			names = append(names, m[1])
		}
	}
	return names
}

// TestCIRunListsNameExistingTests keeps the workflow's repeated -race
// steps honest: a renamed or deleted test would otherwise drop out of its
// `-run` list without a sound.
func TestCIRunListsNameExistingTests(t *testing.T) {
	src, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	workflow := string(src)
	if stale := staleRunNames(t, workflow); len(stale) > 0 {
		t.Errorf("ci.yml -run lists name no test in their packages: %v", stale)
	}
	// The guard itself: a misspelled name must be reported.
	const name, typo = "TestChaosSoak", "TestChaosSaok"
	if !strings.Contains(workflow, name) {
		t.Fatalf("ci.yml no longer runs %s; pick another name to misspell", name)
	}
	stale := staleRunNames(t, strings.Replace(workflow, name, typo, 1))
	if len(stale) != 1 || stale[0] != typo {
		t.Errorf("misspelled %s: guard reported %v, want [%s]", name, stale, typo)
	}
}
