package main

import (
	"bytes"
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestConfigRejectedBeforeDial: a configuration wlg.Config.Validate refuses
// exits 1 with Validate's message before the process listens or dials. The
// addresses resolve to nothing, so an attempt at the mesh would fail with a
// listen error instead.
func TestConfigRejectedBeforeDial(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "psra-worker")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-codec", "nope"}, `wlg: exchange: unknown codec "nope"`},
		{[]string{"-aggregator", "mode"}, `wlg: collective: unknown aggregator "mode"`},
		{[]string{"-aggregator", "trimmed-mean"}, `aggregator "trimmed-mean" requires Elastic mode`},
		{[]string{"-elastic", "-aggregator", "trimmed-mean", "-trim-f", "1"}, "TrimF 1 trims everything"},
		{[]string{"-rejoin"}, "Rejoin requires Elastic mode"},
		{[]string{"-screen"}, "contribution screening requires Elastic mode"},
		{[]string{"-min-barrier", "2"}, "wlg: MinBarrier requires Elastic mode"},
		{[]string{"-elastic", "-max-delay", "3"}, "wlg: MaxDelay requires MinBarrier > 0"},
	} {
		args := append([]string{"-rank", "0", "-addrs", "a,b,c,d,e"}, tc.args...)
		cmd := exec.Command(bin, args...)
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 {
			t.Fatalf("%v: err %v, want exit code 1\n%s", tc.args, err, stderr.String())
		}
		if !strings.Contains(stderr.String(), tc.want) {
			t.Fatalf("%v: stderr %q, want it to contain %q", tc.args, stderr.String(), tc.want)
		}
	}
}
