package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"os"
	"os/exec"
	"strings"
	"testing"

	"admission/internal/core"
	"admission/internal/lca"
	"admission/internal/server"
	"admission/internal/workload"
)

// asMainEnv makes a re-executed test binary run acquery's main with its
// own arguments instead of the tests.
const asMainEnv = "ACQUERY_TEST_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(asMainEnv) != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// acquery runs acquery with args and returns its stdout, its stderr and
// its exit code.
func acquery(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), asMainEnv+"=1")
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case errors.As(err, &exit):
		code = exit.ExitCode()
	case err != nil:
		t.Fatal(err)
	}
	return out.String(), errOut.String(), code
}

// TestLocalAndServedLinesIdentical prints a range of answers in-process,
// then asks a server that mounts the same arrival order for the same range
// over JSON and over the binary codec: the three outputs must be the same
// NDJSON bytes.
func TestLocalAndServedLinesIdentical(t *testing.T) {
	const n, seed, algSeed = 64, 7, 3
	eng, err := lca.New(lca.Config{
		Source:    lca.Source{Workload: "blocks", Model: workload.CostUniform, Capacity: 4, N: n, Seed: seed},
		Algorithm: core.SeededConfig(false, algSeed),
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(server.Config{}, server.Query(eng))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		_ = srv.Drain(context.Background())
		eng.Close()
	})

	span := []string{"-from", "5", "-to", "60", "-batch", "7"}
	local, stderr, code := acquery(t, append([]string{"-workload", "blocks", "-costs", "uniform",
		"-cap", "4", "-n", fmt.Sprint(n), "-seed", fmt.Sprint(seed), "-alg-seed", fmt.Sprint(algSeed)}, span...)...)
	if code != 0 {
		t.Fatalf("local acquery exited %d: %s", code, stderr)
	}
	if lines := strings.Count(local, "\n"); lines != 55 {
		t.Fatalf("local acquery printed %d lines, want 55:\n%s", lines, local)
	}
	for _, codec := range [][]string{nil, {"-wire"}} {
		served, stderr, code := acquery(t, append(append([]string{"-url", ts.URL}, span...), codec...)...)
		if code != 0 {
			t.Fatalf("acquery -url %v exited %d: %s", codec, code, stderr)
		}
		if served != local {
			t.Fatalf("acquery -url %v printed\n%s\nlocal acquery printed\n%s", codec, served, local)
		}
	}
}

// TestRetiredFlagsRefused: the replay-layer and worker flags are gone, so
// the flag package refuses them with its usage exit code.
func TestRetiredFlagsRefused(t *testing.T) {
	for _, args := range [][]string{{"-fidelity", "exact", "-pos", "1"}, {"-workers", "2", "-pos", "1"}} {
		_, stderr, code := acquery(t, args...)
		if code != 2 || !strings.Contains(stderr, "flag provided but not defined") {
			t.Fatalf("acquery %v: exit %d, stderr %q; want exit 2 and an undefined-flag error", args, code, stderr)
		}
	}
}
