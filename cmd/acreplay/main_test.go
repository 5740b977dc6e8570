package main

import (
	"context"
	"errors"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"admission/internal/core"
	"admission/internal/coverengine"
	"admission/internal/engine"
	"admission/internal/problem"
	"admission/internal/server"
	"admission/internal/workload"
)

// asMainEnv makes a re-executed test binary run acreplay's main with its
// own arguments instead of the tests.
const asMainEnv = "ACREPLAY_TEST_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(asMainEnv) != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// serveDurably logs items through node's durable mount in dir, submitted
// as items[:cut] then items[cut:], snapshotting every 16 decisions: a cut
// of 16 to 31 leaves a log of one snapshot and a tail.
func serveDurably[Req, Dec any](t *testing.T, node *server.Node, dir string, client func(url string, conns int) *server.Client[Req, Dec], items []Req, cut int) {
	t.Helper()
	defer node.Close()
	log, info, err := node.Open(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	s, err := server.New(server.Config{}, node.Mount(log, server.DurableOptions{SnapshotEvery: 16, Replay: info}))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	c := client(ts.URL, 1)
	for _, part := range [][]Req{items[:cut], items[cut:]} {
		if _, err = c.Submit(context.Background(), part); err != nil {
			break
		}
	}
	ts.Close()
	if err := errors.Join(err, s.Drain(context.Background()), log.Close()); err != nil {
		t.Fatal(err)
	}
}

// acreplay runs acreplay with args and returns its exit code and output.
func acreplay(t *testing.T, args ...string) (int, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), asMainEnv+"=1")
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if errors.As(err, &exit) {
		return exit.ExitCode(), string(out)
	}
	if err != nil {
		t.Fatal(err)
	}
	return 0, string(out)
}

// TestWALFsck: acreplay -wal verifies an admission and a cover log built
// with its flags' engines, and refuses the admission log under another
// seed's fingerprint.
func TestWALFsck(t *testing.T) {
	dir := t.TempDir()
	caps, err := workload.Capacities("", 16, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	acfg := core.DefaultConfig()
	acfg.Seed = 1
	eng, err := engine.New(caps, engine.Config{Shards: 2, Algorithm: acfg})
	if err != nil {
		t.Fatal(err)
	}
	reqs := make([]problem.Request, 30)
	for i := range reqs {
		reqs[i] = problem.Request{Edges: []int{i % 16, (i + 3) % 16}, Cost: float64(1 + i%5)}
	}
	serveDurably(t, server.AdmissionNode(eng), filepath.Join(dir, "admission"), server.NewAdmissionClient, reqs, 20)
	w, err := workload.BuildNamedCover("cover-random", 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	cov, err := coverengine.New(w.Instance, coverengine.Config{Shards: 1, Seed: 1, Eps: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	elements := []int{0, 1, 2, 3, 0, 1, 4, 5, 6, 7, 2, 3, 8, 9, 10, 11, 12, 13, 14, 15, 16}
	serveDurably(t, server.CoverNode(cov), filepath.Join(dir, "cover"), server.NewCoverClient, elements, 16)

	for _, c := range []struct {
		args []string
		code int
		want string
	}{
		{[]string{"-wal", "-edges", "16", "-cap", "4", "-shards", "2", filepath.Join(dir, "admission")}, 0, "decisions:      30 (20 snapshot + 10 verified tail)"},
		{[]string{"-wal", "-cover", filepath.Join(dir, "cover")}, 0, "decisions:      21 (16 snapshot + 5 verified tail)"},
		{[]string{"-wal", "-edges", "16", "-cap", "4", "-shards", "2", "-seed", "2", filepath.Join(dir, "admission")}, 1, "log does not match engine"},
	} {
		code, out := acreplay(t, c.args...)
		if code != c.code || !strings.Contains(out, c.want) {
			t.Errorf("acreplay %s: exit %d, want %d with %q in:\n%s", strings.Join(c.args, " "), code, c.code, c.want, out)
		}
		if code == 0 && !strings.Contains(out, "OK: the decision log is internally consistent") {
			t.Errorf("acreplay %s: no OK line in:\n%s", strings.Join(c.args, " "), out)
		}
	}
}
