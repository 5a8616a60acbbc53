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

// TestBadKnobsRefused: a preset scale outside (0, 1] or an unknown preset
// exits 1 naming the flag before any data is drawn (nothing on stdout); a
// non-finite ρ or λ and a NaN corruption probability exit 1 instead of
// training garbage.
func TestBadKnobsRefused(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "psra-train")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, tc := range []struct {
		args   []string
		want   string
		noDraw bool
	}{
		{[]string{"-scale", "0"}, "-synth news20 -scale 0: scale 0 outside (0, 1]", true},
		{[]string{"-scale", "-1"}, "-scale -1: scale -1 outside (0, 1]", true},
		{[]string{"-scale", "NaN"}, "-scale NaN: scale NaN outside (0, 1]", true},
		{[]string{"-scale", "5"}, "-scale 5: scale 5 outside (0, 1]", true},
		{[]string{"-synth", "rcv1"}, `-synth rcv1 -scale 0.0005: unknown preset "rcv1"`, true},
		{[]string{"-chaos-corrupt", "NaN"}, "-chaos-corrupt NaN outside [0, 1]", false},
		{[]string{"-rho", "NaN"}, "Rho must be positive and finite, got NaN", false},
		{[]string{"-rho", "Inf"}, "Rho must be positive and finite, got +Inf", false},
		{[]string{"-lambda", "Inf"}, "Lambda must be non-negative and finite, got +Inf", false},
	} {
		args := append([]string{"-iters", "2", "-scale", "0.0005", "-nodes", "2", "-wpn", "2"}, tc.args...)
		cmd := exec.Command(bin, args...)
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 {
			t.Fatalf("%v: err %v, want exit code 1\n%s%s", tc.args, err, stdout.String(), stderr.String())
		}
		if !strings.Contains(stderr.String(), tc.want) {
			t.Fatalf("%v: stderr %q, want it to contain %q", tc.args, stderr.String(), tc.want)
		}
		if tc.noDraw && stdout.Len() != 0 {
			t.Fatalf("%v: printed %q before refusing", tc.args, stdout.String())
		}
	}
}
