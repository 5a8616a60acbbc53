package main

import (
	"bytes"
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestBadFlagRejected: a value bench.Options would silently replace with
// its default exits 1 with a message naming the flag, before any dataset
// is generated or any experiment runs.
func TestBadFlagRejected(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "psra-bench")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-iters", "-3"}, "-iters -3: must be >= 0"},
		{[]string{"-rho", "-5"}, "-rho -5: must be > 0"},
		{[]string{"-rho", "0"}, "-rho 0: must be > 0"},
		{[]string{"-lambda", "0"}, "-lambda 0: must be > 0"},
		{[]string{"-lambda", "NaN"}, "-lambda NaN: must be > 0"},
	} {
		args := append([]string{"-experiment", "table1", "-quick"}, tc.args...)
		cmd := exec.Command(bin, args...)
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 {
			t.Fatalf("%v: err %v, want exit code 1\n%s", tc.args, err, stderr.String())
		}
		if !strings.Contains(stderr.String(), tc.want) {
			t.Fatalf("%v: stderr %q, want it to contain %q", tc.args, stderr.String(), tc.want)
		}
		if stdout.Len() != 0 {
			t.Fatalf("%v: printed %q before refusing", tc.args, stdout.String())
		}
	}
}
