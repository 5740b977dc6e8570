package main

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"testing"
	"time"

	"admission/internal/cluster"
	"admission/internal/lca"
	"admission/internal/problem"
	"admission/internal/server"
)

// asMainEnv makes a re-executed test binary run acserve's main with its
// own arguments instead of the tests.
const asMainEnv = "ACSERVE_TEST_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(asMainEnv) != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// acserve is one acserve process started from this test binary.
type acserve struct {
	cmd  *exec.Cmd
	addr string // the bound address from the serving line
	// startup holds the stderr lines up to the serving line; lines
	// delivers the rest and is closed at EOF.
	startup []string
	lines   chan string
}

// startAcserve runs acserve with args and waits up to 30 s for the line
// that names the bound address.
func startAcserve(t *testing.T, args ...string) *acserve {
	t.Helper()
	p := &acserve{cmd: exec.Command(os.Args[0], args...), lines: make(chan string, 64)} // acserve prints a dozen lines
	p.cmd.Env = append(os.Environ(), asMainEnv+"=1")
	stderr, err := p.cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := p.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = p.cmd.Process.Kill() })
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			p.lines <- sc.Text()
		}
		close(p.lines)
	}()
	timeout := time.After(30 * time.Second)
	for {
		select {
		case line, ok := <-p.lines:
			if !ok {
				t.Fatalf("acserve exited before serving:\n%s", strings.Join(p.startup, "\n"))
			}
			p.startup = append(p.startup, line)
			if rest, found := strings.CutPrefix(line, "acserve: serving workloads "); found {
				_, rest, _ = strings.Cut(rest, "] on ")
				p.addr, _, _ = strings.Cut(rest, ",")
				return p
			}
		case <-timeout:
			t.Fatalf("acserve did not serve within 30s:\n%s", strings.Join(p.startup, "\n"))
		}
	}
}

// line returns the startup line with the given prefix.
func (p *acserve) line(t *testing.T, prefix string) string {
	t.Helper()
	for _, l := range p.startup {
		if strings.HasPrefix(l, prefix) {
			return l
		}
	}
	t.Fatalf("no startup line %q in:\n%s", prefix, strings.Join(p.startup, "\n"))
	return ""
}

// stop sends SIGTERM, requires a clean exit and returns the stderr lines
// printed after the serving line.
func (p *acserve) stop(t *testing.T) []string {
	t.Helper()
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	var rest []string
	for l := range p.lines {
		rest = append(rest, l)
	}
	if err := p.cmd.Wait(); err != nil {
		t.Fatalf("acserve after SIGTERM: %v\n%s", err, strings.Join(rest, "\n"))
	}
	return rest
}

// TestDurableRestartContinues: admission requests and cover arrivals
// served durably, a SIGTERM, and a restart on the same -wal-dir that
// recovers both logs and continues the admission IDs where they stopped.
func TestDurableRestartContinues(t *testing.T) {
	args := []string{"-addr", "127.0.0.1:0", "-edges", "16", "-cap", "4", "-shards", "2",
		"-cover", "-wal-dir", t.TempDir()}
	ctx := context.Background()
	const nAdm, nCov = 40, 8
	reqs := make([]problem.Request, nAdm+1)
	for i := range reqs {
		reqs[i] = problem.Request{Edges: []int{i % 16, (i + 5) % 16}, Cost: float64(1 + i%3)}
	}
	elements := make([]int, nCov)
	for i := range elements {
		elements[i] = i
	}

	p := startAcserve(t, args...)
	p.line(t, "acserve: admission: m=16 edges")
	if _, err := server.NewAdmissionClient("http://"+p.addr, 1).Submit(ctx, reqs[:nAdm]); err != nil {
		t.Fatal(err)
	}
	if _, err := server.NewCoverClient("http://"+p.addr, 1).Submit(ctx, elements); err != nil {
		t.Fatal(err)
	}
	p.stop(t)

	p = startAcserve(t, args...)
	// SIGTERM after a clean drain snapshots both logs, so the restart
	// replays them from their snapshots alone.
	p.line(t, fmt.Sprintf("acserve: admission wal: recovered %d decisions (%d snapshot + 0 tail)", nAdm, nAdm))
	p.line(t, fmt.Sprintf("acserve: cover wal: recovered %d decisions (%d snapshot + 0 tail)", nCov, nCov))
	ds, err := server.NewAdmissionClient("http://"+p.addr, 1).Submit(ctx, reqs[nAdm:])
	if err != nil {
		t.Fatal(err)
	}
	if ds[0].ID != nAdm || ds[0].Error != "" {
		t.Fatalf("first decision after restart %+v, want ID %d", ds[0], nAdm)
	}
	p.stop(t)
}

// TestClusterBackendRestartContinues: cluster mode runs the same durable
// path, so a backend restarted on its -wal-dir reports the recovered
// operations and continues their IDs.
func TestClusterBackendRestartContinues(t *testing.T) {
	args := []string{"-addr", "127.0.0.1:0", "-edges", "16", "-cap", "4", "-shards", "2",
		"-cluster-size", "2", "-cluster-index", "0", "-wal-dir", t.TempDir()}
	ctx := context.Background()
	const n = 30

	p := startAcserve(t, args...)
	var owned int
	if _, err := fmt.Sscanf(p.line(t, "acserve: cluster backend 0/2: "), "acserve: cluster backend 0/2: %d of 16 edges", &owned); err != nil || owned == 0 {
		t.Fatalf("backend owns %d edges (%v)", owned, err)
	}
	ops := make([]cluster.Op, n+1)
	for i := range ops {
		ops[i] = cluster.Op{Kind: cluster.OpOffer, Edges: []int{i % owned}, Cost: float64(1 + i%4)}
	}
	if _, err := cluster.NewClient("http://"+p.addr, cluster.RetryPolicy{}).Submit(ctx, ops[:n]); err != nil {
		t.Fatal(err)
	}
	p.stop(t)

	p = startAcserve(t, args...)
	p.line(t, fmt.Sprintf("acserve: cluster wal: recovered %d decisions", n))
	ds, err := cluster.NewClient("http://"+p.addr, cluster.RetryPolicy{}).Submit(ctx, ops[n:])
	if err != nil {
		t.Fatal(err)
	}
	if ds[0].ID != n || ds[0].Error != "" {
		t.Fatalf("first decision after restart %+v, want ID %d", ds[0], n)
	}
	p.stop(t)
}

// TestQueryShutdownCountsSimulatedArrivals: the query tier's shutdown line
// reports the arrivals the frontier simulated. A fresh engine asked one
// position several times simulates pos+1 arrivals once, not pos+1 per
// answer.
func TestQueryShutdownCountsSimulatedArrivals(t *testing.T) {
	const pos, asks = 20, 3
	p := startAcserve(t, "-addr", "127.0.0.1:0", "-edges", "16", "-query", "-query-n", "64")
	qs := make([]lca.Query, asks)
	for i := range qs {
		qs[i] = lca.Query{Pos: pos}
	}
	if _, err := server.NewQueryClient("http://"+p.addr, 1).Submit(context.Background(), qs); err != nil {
		t.Fatal(err)
	}
	rest := p.stop(t)
	for _, l := range rest {
		if strings.HasPrefix(l, "acserve: final query stats: ") {
			want := fmt.Sprintf("%d queries, ", asks)
			if !strings.Contains(l, want) || !strings.HasSuffix(l, fmt.Sprintf(", %d simulated arrivals", pos+1)) {
				t.Fatalf("shutdown line %q, want %q and %d simulated arrivals", l, want, pos+1)
			}
			return
		}
	}
	t.Fatalf("no final query stats line in:\n%s", strings.Join(rest, "\n"))
}
