package main

import (
	"bytes"
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestEveryRejected: -every below 1 (a modulus) exits 1 with a message
// naming the flag, before any dataset is generated; -every 1 runs.
func TestEveryRejected(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "psra-train")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	run := func(every string) (string, string, error) {
		cmd := exec.Command(bin, "-iters", "2", "-scale", "0.0005", "-nodes", "2", "-wpn", "2", "-every", every)
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		return stdout.String(), stderr.String(), err
	}
	for _, every := range []string{"0", "-3"} {
		stdout, stderr, err := run(every)
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 {
			t.Fatalf("-every %s: err %v, want exit code 1\n%s", every, err, stderr)
		}
		if want := "-every must be a positive integer, got " + every; !strings.Contains(stderr, want) {
			t.Fatalf("-every %s: stderr %q, want it to contain %q", every, stderr, want)
		}
		if stdout != "" {
			t.Fatalf("-every %s: printed %q before refusing", every, stdout)
		}
	}
	stdout, stderr, err := run("1")
	if err != nil {
		t.Fatalf("-every 1: %v\n%s", err, stderr)
	}
	if !strings.Contains(stdout, "iter   1") || !strings.Contains(stdout, "iter   2") {
		t.Fatalf("-every 1 did not print both iterations:\n%s", stdout)
	}
}
