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
// exits 1 with the reason before the process listens or dials. The
// addresses resolve to nothing, so an attempt at the mesh would fail with a
// listen error instead. The rows here are the worker's own refusals, which
// it checks once the shared run flags pass the engine's rules (a TrimF that
// trims every node the engine refuses first); the shared flags' refusals
// are TestSharedFlagsRefusedAlike's, in the root package.
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
		// Three nodes, so the engine's rules accept the trim and the refusal
		// is the runtime's own.
		{[]string{"-nodes", "3", "-aggregator", "trimmed-mean"}, `aggregator "trimmed-mean" requires Elastic mode`},
		{[]string{"-elastic", "-aggregator", "trimmed-mean", "-trim-f", "1"}, "TrimF 1 trims everything"},
		{[]string{"-rejoin"}, "Rejoin requires Elastic mode"},
		{[]string{"-screen"}, "contribution screening requires Elastic mode"},
	} {
		args := append([]string{"-rank", "0", "-addrs", "a,b,c,d,e", "-nodes", "2", "-wpn", "2"}, tc.args...)
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
