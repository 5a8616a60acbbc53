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
	for _, every := range []string{"0", "-3"} {
		stdout, stderr, err := runTrain(bin, "-every", every)
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
	stdout, stderr, err := runTrain(bin, "-every", "1")
	if err != nil {
		t.Fatalf("-every 1: %v\n%s", err, stderr)
	}
	if !strings.Contains(stdout, "iter   1") || !strings.Contains(stdout, "iter   2") {
		t.Fatalf("-every 1 did not print both iterations:\n%s", stdout)
	}
}

// TestBadKnobsRefused: the knobs only psra-train has are refused with exit
// 1 before any data is drawn (nothing on stdout): a NaN corruption
// probability, a -checkpoint-every below 1, and a chaos schedule naming a
// rank outside the world or a negative iteration, which used to panic
// mid-run or inject nothing. The shared run flags' refusals are
// TestSharedFlagsRefusedAlike's, in the root package.
func TestBadKnobsRefused(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "psra-train")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-chaos-corrupt", "NaN"}, "core: Faults.CorruptProb must be in [0,1], got NaN"},
		{[]string{"-chaos-corrupt", "-0.5"}, "core: Faults.CorruptProb must be in [0,1], got -0.5"},
		{[]string{"-checkpoint-every", "0"}, "-checkpoint-every must be >= 1, got 0"},
		{[]string{"-chaos-kill", "9@1"}, "core: Faults.KillAtIteration rank 9 outside the world [0,4)"},
		{[]string{"-chaos-kill", "1@-4"}, "core: Faults.KillAtIteration rank 1 iteration -4 negative"},
		{[]string{"-chaos-corrupt-at", "9@1"}, "core: Faults.CorruptAtIteration rank 9 outside the world [0,4)"},
		{[]string{"-chaos-nan", "9@1"}, "core: Faults.NaNAtIteration rank 9 outside the world [0,4)"},
		{[]string{"-chaos-nan", "-1@1"}, "core: Faults.NaNAtIteration rank -1 outside the world [0,4)"},
		{[]string{"-chaos-nan", "1@-3"}, "core: Faults.NaNAtIteration rank 1 iteration -3 negative"},
		{[]string{"-chaos-byzantine", "-1@1:scale"}, "core: Byzantine rank -1 outside the world [0,4)"},
		{[]string{"-chaos-kill", "1@3", "-chaos-rejoin", "1@8"}, "core: Faults.RejoinAtIteration requires Elastic mode"},
	} {
		stdout, stderr, err := runTrain(bin, tc.args...)
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 {
			t.Fatalf("%v: err %v, want exit code 1\n%s%s", tc.args, err, stdout, stderr)
		}
		if !strings.Contains(stderr, tc.want) {
			t.Fatalf("%v: stderr %q, want it to contain %q", tc.args, stderr, tc.want)
		}
		if stdout != "" {
			t.Fatalf("%v: printed %q before refusing", tc.args, stdout)
		}
	}
}

// TestZeroMeansDefault: an explicit 0 on a flag whose 0 means the default
// runs, and the bool -elastic both survives a kill and re-admits the rank
// when it returns.
func TestZeroMeansDefault(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "psra-train")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-min-barrier", "0", "-max-delay", "0", "-trim-f", "0", "-quarantine-rounds", "0", "-codec-budget-bytes", "0", "-shard-blocks", "0"}, "final objective"},
		{[]string{"-iters", "12", "-elastic", "-chaos-kill", "1@3", "-chaos-rejoin", "1@8"}, "RECOVERED: membership changed 2 times"},
	} {
		stdout, stderr, err := runTrain(bin, tc.args...)
		if err != nil {
			t.Fatalf("%v: %v\n%s", tc.args, err, stderr)
		}
		if !strings.Contains(stdout, tc.want) {
			t.Fatalf("%v: stdout lacks %q:\n%s", tc.args, tc.want, stdout)
		}
	}
}

// runTrain runs psra-train on a small world (2 nodes × 2 workers, 2
// iterations of a tiny news20) with args appended.
func runTrain(bin string, args ...string) (string, string, error) {
	cmd := exec.Command(bin, append([]string{"-iters", "2", "-scale", "0.0005", "-nodes", "2", "-wpn", "2"}, args...)...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	return stdout.String(), stderr.String(), err
}
