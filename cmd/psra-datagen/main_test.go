package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestScaleRefused: a preset scale outside (0, 1], an unknown preset, or
// a custom draw that would never end (more distinct features a row than
// -dim, a non-finite -zipf) or never flip a label (-noise NaN) exits 1
// naming the flag or the field and writes no file; a scale inside it
// writes both splits.
func TestScaleRefused(t *testing.T) {
	dir := t.TempDir()
	bin := filepath.Join(dir, "psra-datagen")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	out := filepath.Join(dir, "d")
	run := func(args ...string) (string, error) {
		cmd := exec.Command(bin, append(args, "-out", out)...)
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		err := cmd.Run()
		return stderr.String(), err
	}
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-scale", "0"}, "-preset news20 -scale 0: scale 0 outside (0, 1]"},
		{[]string{"-preset", "url", "-scale", "-1"}, "-preset url -scale -1: scale -1 outside (0, 1]"},
		{[]string{"-scale", "NaN"}, "-scale NaN: scale NaN outside (0, 1]"},
		{[]string{"-preset", "webspam", "-scale", "5"}, "-scale 5: scale 5 outside (0, 1]"},
		{[]string{"-preset", "rcv1"}, `-preset rcv1 -scale 0.001: unknown preset "rcv1"`},
		{[]string{"-preset", "custom", "-dim", "10", "-rownnz", "8", "-signal", "5"}, "RowNNZ 8 out of (0,5]"},
		{[]string{"-preset", "custom", "-zipf", "NaN"}, "ZipfS NaN must be finite"},
		{[]string{"-preset", "custom", "-zipf", "Inf"}, "ZipfS +Inf must be finite"},
		{[]string{"-preset", "custom", "-noise", "NaN"}, "NoiseFlip NaN out of"},
	} {
		stderr, err := run(tc.args...)
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 {
			t.Fatalf("%v: err %v, want exit code 1\n%s", tc.args, err, stderr)
		}
		if !strings.Contains(stderr, tc.want) {
			t.Fatalf("%v: stderr %q, want it to contain %q", tc.args, stderr, tc.want)
		}
		if _, err := os.Stat(out + ".train.svm"); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("%v: a training file was written before refusing (%v)", tc.args, err)
		}
	}
	if stderr, err := run("-scale", "0.0002"); err != nil {
		t.Fatalf("-scale 0.0002: %v\n%s", err, stderr)
	}
	for _, split := range []string{".train.svm", ".test.svm"} {
		if _, err := os.Stat(out + split); err != nil {
			t.Fatal(err)
		}
	}
}
