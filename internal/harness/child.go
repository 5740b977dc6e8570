package harness

import (
	"bufio"
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"os/signal"
	"syscall"
	"time"

	"admission/internal/cluster"
	"admission/internal/problem"
	"admission/internal/rng"
	"admission/internal/server"
	"admission/internal/workload"
)

// --- the durable child: E17 and E19 re-execute their host binary ---------

// ChildEnv marks a process as the durable-server child of E17 or E19 and
// carries its JSON spec. Main functions that may host those experiments
// must call RunChild when it is set.
const ChildEnv = "ACBENCH_CHILD"

// Child roles: what a durable child serves.
const (
	roleAdmission = "admission" // E17: a 4-shard admission engine
	roleCluster   = "cluster"   // E19: a backend for one ring partition
)

// childCapacity is the uniform edge capacity of the children's workload.
const childCapacity = 4

// childSpec is what a parent hands its child through ChildEnv. Both sides
// regenerate the instance from Seed and Edges, so no request crosses the
// process boundary.
type childSpec struct {
	Role      string `json:"role"`
	Dir       string `json:"dir"` // WAL directory
	Seed      uint64 `json:"seed"`
	Edges     int    `json:"edges"`
	SnapEvery int64  `json:"snap_every"` // snapshot cadence in decisions
	// Addr is the loopback address to listen on; "" picks a free port. A
	// restarted cluster backend takes its predecessor's, so the router's
	// client reaches both incarnations.
	Addr string `json:"addr,omitempty"`
	// Backends and Index place a cluster backend on the ring.
	Backends int `json:"backends,omitempty"`
	Index    int `json:"index,omitempty"`
}

// childInstance regenerates the children's workload from the seed alone.
func childInstance(seed uint64, m int) (*problem.Instance, error) {
	_, ins, err := genOverloadedGraph(m, childCapacity, workload.CostUnit, rng.New(seed))
	return ins, err
}

// node builds the spec's engine (admission) or ring-partition backend
// (cluster) with the deterministic configuration its experiment uses.
func (s childSpec) node() (*server.Node, error) {
	ins, err := childInstance(s.Seed, s.Edges)
	if err != nil {
		return nil, err
	}
	switch s.Role {
	case roleAdmission:
		eng, err := e17Engine(ins.Capacities, s.Seed)
		if err != nil {
			return nil, err
		}
		return server.AdmissionNode(eng), nil
	case roleCluster:
		ring, err := cluster.NewRing(s.Edges, s.Backends, 0)
		if err != nil {
			return nil, err
		}
		bcaps, err := ring.Caps(ins.Capacities, s.Index)
		if err != nil {
			return nil, err
		}
		be, err := cluster.NewBackend(bcaps, cluster.BackendConfig{Engine: e19EngineConfig(s.Seed)})
		if err != nil {
			return nil, err
		}
		return server.ClusterNode(be), nil
	}
	return nil, fmt.Errorf("unknown child role %q", s.Role)
}

// fsck is E17's and E19's offline check of a stopped child's WAL: it
// replays the spec's directory read-only into a fresh node and returns the
// node's state digest afterwards and what the replay covered.
func (s childSpec) fsck() (uint64, server.RecoveryInfo, error) {
	n, err := s.node()
	if err != nil {
		return 0, server.RecoveryInfo{}, err
	}
	defer n.Close()
	log, info, err := n.Open(s.Dir, true)
	if err != nil {
		return 0, server.RecoveryInfo{}, err
	}
	log.Close()
	return n.StateDigest(), info, nil
}

// RunChild is the body of a durable-server child: the engine or cluster
// backend named by the ChildEnv spec, behind the WAL, on a loopback
// listener. It recovers whatever the WAL directory holds (recovery
// re-verifies every logged decision, so coming up at all certifies
// decision-identical recovery), prints one READY line with its address and
// recovered count, and serves until SIGTERM, then drains, snapshots and
// closes; a drain that fails exits 1 without the snapshot. It never
// returns: SIGKILL is part of its job.
func RunChild() {
	die := func(err error) {
		fmt.Fprintln(os.Stderr, "acbench child:", err)
		os.Exit(1)
	}
	var spec childSpec
	if err := json.Unmarshal([]byte(os.Getenv(ChildEnv)), &spec); err != nil {
		die(fmt.Errorf("bad %s: %w", ChildEnv, err))
	}
	node, err := spec.node()
	if err != nil {
		die(err)
	}
	log, info, err := node.Open(spec.Dir, false)
	if err != nil {
		die(err)
	}
	srv, err := server.New(server.Config{},
		node.Mount(log, server.DurableOptions{SnapshotEvery: spec.SnapEvery, Replay: info}))
	if err != nil {
		die(err)
	}
	// The one listener outside serve: a restarted cluster backend must
	// come back on its predecessor's fixed address.
	ln, err := net.Listen("tcp", cmp.Or(spec.Addr, "127.0.0.1:0"))
	if err != nil {
		die(err)
	}
	// spawnChild parses this line; keep the formats in sync.
	fmt.Printf("CHILD READY addr=%s recovered=%d\n", ln.Addr(), log.NextSeq())

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM)
	defer stop()
	drainErr := srv.Run(ctx, ln, 30*time.Second)
	if err := errors.Join(drainErr, node.Finish(log, drainErr)); err != nil {
		die(err)
	}
	node.Close()
	os.Exit(0)
}

// child is the parent's handle on one child incarnation.
type child struct {
	cmd       *exec.Cmd
	addr      string
	recovered int64
}

// spawnChild re-executes the current binary as the durable child spec
// describes and waits up to 60 s for its READY line.
func spawnChild(spec childSpec) (*child, error) {
	js, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	c := &child{cmd: exec.Command(exe)}
	c.cmd.Env = append(os.Environ(), ChildEnv+"="+string(js))
	c.cmd.Stderr = os.Stderr
	out, err := c.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := c.cmd.Start(); err != nil {
		return nil, err
	}
	ready := make(chan error, 1)
	go func() {
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			if _, err := fmt.Sscanf(sc.Text(), "CHILD READY addr=%s recovered=%d", &c.addr, &c.recovered); err == nil {
				ready <- nil
				return
			}
		}
		ready <- fmt.Errorf("%s child exited without a READY line (is the RunChild hook installed in this binary's main?): %v", spec.Role, sc.Err())
	}()
	select {
	case err := <-ready:
		if err != nil {
			c.kill()
			return nil, err
		}
		return c, nil
	case <-time.After(60 * time.Second):
		c.kill()
		return nil, fmt.Errorf("%s child did not become ready within 60s", spec.Role)
	}
}

// kill SIGKILLs the child and reaps it.
func (c *child) kill() {
	_ = c.cmd.Process.Kill()
	_ = c.cmd.Wait()
}

// stop sends SIGTERM — drain, shutdown snapshot, close — and waits for a
// clean exit.
func (c *child) stop() error {
	if err := c.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		c.kill()
		return err
	}
	return c.cmd.Wait()
}
