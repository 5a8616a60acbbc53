package psrahgadmm

import (
	"bytes"
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestSharedFlagsRefusedAlike: psra-train and psra-worker declare their run
// flags once (core.RegisterFlags) and check them with their runtime's
// Validate, so a bad value of a shared flag is refused by both alike: exit
// 1 before any data is drawn (nothing on stdout) and the same stderr once
// the command's name and the core:/wlg: prefix are removed. The worker's
// addresses resolve to nothing, so its refusal also comes before the mesh.
func TestSharedFlagsRefusedAlike(t *testing.T) {
	dir := t.TempDir()
	bins := []string{filepath.Join(dir, "psra-train"), filepath.Join(dir, "psra-worker")}
	for _, bin := range bins {
		if out, err := exec.Command("go", "build", "-o", bin, "./cmd/"+filepath.Base(bin)).CombinedOutput(); err != nil {
			t.Fatalf("go build: %v\n%s", err, out)
		}
	}
	base := map[string][]string{
		"psra-train":  {"-nodes", "2", "-wpn", "2", "-iters", "2", "-scale", "0.0005"},
		"psra-worker": {"-rank", "0", "-addrs", "a,b,c,d,e", "-nodes", "2", "-wpn", "2", "-iters", "2", "-scale", "0.0005"},
	}
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-nodes", "0"}, "simnet: topology 0x2 invalid"},
		{[]string{"-wpn", "-1"}, "simnet: topology 2x-1 invalid"},
		{[]string{"-iters", "0"}, "MaxIter must be positive, got 0"},
		{[]string{"-rho", "NaN"}, "core: Rho must be positive and finite, got NaN"},
		{[]string{"-rho", "Inf"}, "core: Rho must be positive and finite, got +Inf"},
		{[]string{"-rho", "0"}, "core: Rho must be positive and finite, got 0"},
		{[]string{"-lambda", "Inf"}, "core: Lambda must be non-negative and finite, got +Inf"},
		{[]string{"-lambda", "-1"}, "core: Lambda must be non-negative and finite, got -1"},
		{[]string{"-min-barrier", "-1"}, "MinBarrier must be non-negative, got -1"},
		{[]string{"-min-barrier", "9"}, "MinBarrier 9 exceeds the worker count 4"},
		{[]string{"-max-delay", "-1"}, "MaxDelay must be non-negative, got -1"},
		{[]string{"-codec-budget-bytes", "-1"}, "CodecBudgetBytes must be non-negative, got -1"},
		{[]string{"-aggregator", "mode"}, `collective: unknown aggregator "mode"`},
		{[]string{"-trim-f", "-1"}, "collective: TrimF must be non-negative, got -1"},
		{[]string{"-quarantine-rounds", "-1"}, "QuarantineRounds must be non-negative, got -1"},
		{[]string{"-watchdog", "-watchdog-window", "-1"}, "watchdog: Window -1 negative"},
		{[]string{"-watchdog", "-watchdog-residual-factor", "NaN"}, "watchdog: ResidualFactor NaN is not finite and non-negative"},
		{[]string{"-synth", "rcv1"}, `-synth rcv1 -scale 0.0005: unknown preset "rcv1"`},
		{[]string{"-scale", "0"}, "-synth news20 -scale 0: scale 0 outside (0, 1]"},
		{[]string{"-scale", "-1"}, "-synth news20 -scale -1: scale -1 outside (0, 1]"},
		{[]string{"-scale", "NaN"}, "-synth news20 -scale NaN: scale NaN outside (0, 1]"},
		{[]string{"-scale", "5"}, "-synth news20 -scale 5: scale 5 outside (0, 1]"},
	} {
		var reasons []string
		for _, bin := range bins {
			name := filepath.Base(bin)
			cmd := exec.Command(bin, append(base[name], tc.args...)...)
			var stdout, stderr bytes.Buffer
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			err := cmd.Run()
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() != 1 {
				t.Fatalf("%s %v: err %v, want exit code 1\n%s%s", name, tc.args, err, stdout.String(), stderr.String())
			}
			if stdout.Len() != 0 {
				t.Fatalf("%s %v: printed %q before refusing", name, tc.args, stdout.String())
			}
			reason := strings.TrimPrefix(stderr.String(), name+": ")
			reason = strings.TrimPrefix(strings.TrimPrefix(reason, "wlg: "), "core: ")
			if !strings.Contains(stderr.String(), tc.want) {
				t.Fatalf("%s %v: stderr %q, want it to contain %q", name, tc.args, stderr.String(), tc.want)
			}
			reasons = append(reasons, reason)
		}
		if reasons[0] != reasons[1] {
			t.Errorf("%v: psra-train says %q, psra-worker %q", tc.args, reasons[0], reasons[1])
		}
	}
	// -elastic is a bool in both: the old tri-state spellings do not parse.
	for _, bin := range bins {
		cmd := exec.Command(bin, "-elastic=recover")
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 || !strings.Contains(stderr.String(), `invalid boolean value "recover" for -elastic`) {
			t.Fatalf("%s -elastic=recover: err %v, want a flag parse error\n%s", filepath.Base(bin), err, stderr.String())
		}
	}
}
