package psrahgadmm

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// ciWorkflow is the workflow whose go test selectors TestCISelectorsMatchTests
// holds against the test files.
const ciWorkflow = ".github/workflows/ci.yml"

// TestCISelectorsMatchTests keeps CI's focused steps running what they name.
// It reads every go test command of the workflow and checks each selector
// against the Test, Fuzz and Benchmark functions of that command's
// packages:
//   - every |-separated alternative of a -run pattern matches at least one
//     of them, so a rename or a deletion cannot silently drop a test out of
//     its repeated or race step;
//   - a -run beside -fuzz or -bench is the "no tests" idiom and is not
//     checked; the -fuzz target, or the -bench pattern, must match instead.
//
// There is no allowlist: fix the selector, or the package list it runs on.
func TestCISelectorsMatchTests(t *testing.T) {
	cmds, err := goTestCommands(ciWorkflow)
	if err != nil {
		t.Fatal(err)
	}
	selective := 0
	for _, c := range cmds {
		names, err := testFuncs(".", c.pkgs)
		if err != nil {
			t.Fatalf("%s:%d: %v", ciWorkflow, c.line, err)
		}
		var checks []string // patterns that must each match a function
		switch {
		case c.flags["fuzz"] != "":
			checks = []string{c.flags["fuzz"]}
		case c.flags["bench"] != "":
			checks = []string{c.flags["bench"]}
		case c.flags["run"] != "":
			checks = alternatives(c.flags["run"])
		}
		if len(checks) > 0 {
			selective++
		}
		for _, pat := range checks {
			re, err := regexp.Compile(pat)
			if err != nil {
				t.Errorf("%s:%d: selector %q: %v", ciWorkflow, c.line, pat, err)
				continue
			}
			if !slices.ContainsFunc(names, re.MatchString) {
				t.Errorf("%s:%d: selector %q matches no Test, Fuzz or Benchmark function in %s", ciWorkflow, c.line, pat, strings.Join(c.pkgs, " "))
			}
		}
	}
	if selective == 0 {
		t.Fatalf("%s: found no go test command with a selector; the parser no longer reads the workflow", ciWorkflow)
	}
}

// goTestCmd is one go test command of a workflow: its line, its flags by
// name (value "true" for a bare flag) and its package patterns.
type goTestCmd struct {
	line  int
	flags map[string]string
	pkgs  []string
}

// goTestValueFlags are the go test flags that take their value as the next
// argument when it is not written with "=".
var goTestValueFlags = map[string]bool{
	"run": true, "skip": true, "bench": true, "fuzz": true, "count": true,
	"timeout": true, "fuzztime": true, "benchtime": true, "cpu": true,
	"parallel": true, "tags": true, "coverprofile": true, "o": true,
}

// goTestCommands returns the go test commands of the workflow at path, with
// backslash-continued lines joined.
func goTestCommands(path string) ([]goTestCmd, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var cmds []goTestCmd
	lines := strings.Split(string(raw), "\n")
	for i := 0; i < len(lines); i++ {
		start, text := i+1, strings.TrimSpace(lines[i])
		for strings.HasSuffix(text, `\`) && i+1 < len(lines) {
			i++
			text = strings.TrimSuffix(text, `\`) + " " + strings.TrimSpace(lines[i])
		}
		if strings.HasPrefix(text, "#") {
			continue
		}
		at := strings.Index(text, "go test ")
		if at < 0 {
			continue
		}
		c, err := parseGoTest(text[at+len("go test "):])
		if err != nil {
			return nil, fmt.Errorf("%s:%d: %v", path, start, err)
		}
		c.line = start
		cmds = append(cmds, c)
	}
	return cmds, nil
}

// parseGoTest reads go test's arguments up to the end of the command.
func parseGoTest(args string) (goTestCmd, error) {
	c := goTestCmd{flags: make(map[string]string)}
	toks := shellWords(args)
	for k := 0; k < len(toks); k++ {
		tok := toks[k]
		switch {
		case tok == "&&" || tok == "||" || tok == ";" || tok == "|" || strings.HasPrefix(tok, ">") || strings.HasPrefix(tok, "2>"):
			return c, nil
		case strings.HasPrefix(tok, "-"):
			name, val, hasVal := strings.Cut(strings.TrimLeft(tok, "-"), "=")
			if !hasVal {
				val = "true"
				if goTestValueFlags[name] {
					if k+1 == len(toks) {
						return c, fmt.Errorf("-%s has no value", name)
					}
					k++
					val = toks[k]
				}
			}
			c.flags[name] = val
		case tok == "." || strings.HasPrefix(tok, "./"):
			c.pkgs = append(c.pkgs, tok)
		default:
			return c, fmt.Errorf("go test argument %q is neither a flag nor a ./ package pattern", tok)
		}
	}
	return c, nil
}

// shellWords splits s at blanks outside single or double quotes and drops
// the quotes.
func shellWords(s string) []string {
	var words []string
	var cur strings.Builder
	inWord := false
	var quote rune
	for _, r := range s {
		switch {
		case quote != 0 && r == quote:
			quote = 0
		case quote != 0:
			cur.WriteRune(r)
		case r == '\'' || r == '"':
			quote, inWord = r, true
		case r == ' ' || r == '\t':
			if inWord {
				words = append(words, cur.String())
				cur.Reset()
				inWord = false
			}
		default:
			cur.WriteRune(r)
			inWord = true
		}
	}
	if inWord {
		words = append(words, cur.String())
	}
	return words
}

// alternatives splits a -run pattern at its top-level |s. Only the part
// before a top-level / selects top-level tests; the rest selects subtests.
func alternatives(pattern string) []string {
	var out []string
	depth, from := 0, 0
	for i, r := range pattern {
		switch {
		case r == '(' || r == '[':
			depth++
		case r == ')' || r == ']':
			depth--
		case depth == 0 && r == '|':
			out = append(out, pattern[from:i])
			from = i + 1
		case depth == 0 && r == '/':
			return append(out, pattern[from:i])
		}
	}
	return append(out, pattern[from:])
}

// testFuncs returns the names of the Test, Fuzz and Benchmark functions in
// the _test.go files of the packages the patterns name under root.
func testFuncs(root string, patterns []string) ([]string, error) {
	if len(patterns) == 0 {
		patterns = []string{"."} // go test with no package runs the current one
	}
	var names []string
	fset := token.NewFileSet()
	for _, pat := range patterns {
		dir, recursive := strings.CutSuffix(pat, "...")
		dir = filepath.Join(root, filepath.Clean(strings.TrimSuffix(dir, "/")))
		if !recursive {
			found, err := dirTestFuncs(fset, dir)
			if err != nil {
				return nil, err
			}
			names = append(names, found...)
			continue
		}
		err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
			if err != nil || !d.IsDir() {
				return err
			}
			if base := d.Name(); path != dir && (base == "testdata" || strings.HasPrefix(base, ".") || strings.HasPrefix(base, "_")) {
				return filepath.SkipDir
			}
			found, err := dirTestFuncs(fset, path)
			names = append(names, found...)
			return err
		})
		if err != nil {
			return nil, err
		}
	}
	return names, nil
}

// dirTestFuncs returns the Test, Fuzz and Benchmark functions declared in
// dir's _test.go files.
func dirTestFuncs(fset *token.FileSet, dir string) ([]string, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*_test.go"))
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		if _, err := os.Stat(dir); err != nil {
			return nil, err // a package pattern that names nothing
		}
	}
	var names []string
	for _, file := range files {
		f, err := parser.ParseFile(fset, file, nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Recv != nil {
				continue
			}
			for _, prefix := range []string{"Test", "Fuzz", "Benchmark"} {
				if strings.HasPrefix(fn.Name.Name, prefix) {
					names = append(names, fn.Name.Name)
				}
			}
		}
	}
	return names, nil
}
