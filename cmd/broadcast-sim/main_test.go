package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// runMainEnv makes the test binary act as broadcast-sim: a child
// process started with it set runs main with the remaining arguments.
const runMainEnv = "BROADCAST_SIM_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runCLI re-executes the test binary as broadcast-sim with args and
// returns its exit code, stdout and stderr.
func runCLI(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var ee *exec.ExitError
	switch {
	case err == nil:
		return 0, stdout.String(), stderr.String()
	case errors.As(err, &ee):
		return ee.ExitCode(), stdout.String(), stderr.String()
	default:
		t.Fatalf("running broadcast-sim %v: %v", args, err)
		return 0, "", ""
	}
}

// TestExitCodes pins the usage-error classification: parse and
// Validate failures, builder SpecErrors from scenario.Generate and
// runner SpecErrors from protocol.RunOn all exit 2 with one stderr
// line, and a valid run exits 0.
func TestExitCodes(t *testing.T) {
	for _, tc := range []struct {
		name   string
		args   []string
		stderr string
	}{
		{"parse", []string{"-alg", "nos:bogus=1"},
			`broadcast-sim: protocol: nos has no parameter "bogus" (has: source, txrounds, cprob, maxtxprob, gamma, budgetmul)` + "\n"},
		{"validate", []string{"-scenario", "uniform:n=2.5"},
			"broadcast-sim: scenario: uniform: parameter n=2.5 must be an integer\n"},
		{"builder", []string{"-scenario", "dumbbell:radius=5"},
			"broadcast-sim: scenario: dumbbell: radius 5 must be in (0, 0.6666666666666667]\n"},
		{"runner", []string{"-alg", "nos:source=99", "-scenario", "uniform:n=48"},
			"broadcast-sim: protocol: source=99 outside [0,48)\n"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			code, stdout, stderr := runCLI(t, tc.args...)
			if code != exitUsage {
				t.Errorf("exit code %d, want %d", code, exitUsage)
			}
			if stderr != tc.stderr {
				t.Errorf("stderr:\n got %q\nwant %q", stderr, tc.stderr)
			}
			if stdout != "" {
				t.Errorf("stdout not empty: %q", stdout)
			}
		})
	}

	code, stdout, stderr := runCLI(t, "-alg", "nos", "-scenario", "uniform:n=16")
	if code != 0 || stderr != "" {
		t.Fatalf("valid run: exit code %d, stderr %q", code, stderr)
	}
	if !strings.Contains(stdout, "all informed   true\n") {
		t.Errorf("valid run output missing the summary:\n%s", stdout)
	}
}
