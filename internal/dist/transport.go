package dist

import (
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"sync"
	"time"

	"dynsens/internal/graph"
	"dynsens/internal/netio/frame"
	"dynsens/internal/radio"
)

// Conn is one node's framed byte stream: in-memory pipe or child-process
// stdio. Implementations should support write deadlines (see
// deadlineWriter) so a stalled node cannot wedge the coordinator's send
// path; both built-in fleets do.
type Conn interface {
	io.ReadWriteCloser
}

// deadlineWriter is the optional Conn facet the coordinator uses to bound
// sends. net.Conn and *os.File pipes both provide it.
type deadlineWriter interface {
	SetWriteDeadline(t time.Time) error
}

// Peer is the coordinator's handle on one connected node: the framed
// connection plus the node's Hello, which the fleet has already consumed
// from the stream (the Hello carries the node ID and the program's initial
// Done bit, which seeds the quiescence counter exactly as the kernel's
// pre-run Done poll does).
type Peer struct {
	conn  Conn
	dec   *frame.Decoder
	enc   *frame.Encoder
	hello frame.Frame
}

// newPeer wraps conn with the frame codec and consumes the node's Hello.
func newPeer(conn Conn) (*Peer, error) {
	p := &Peer{conn: conn, dec: frame.NewDecoder(conn), enc: frame.NewEncoder(conn)}
	if err := p.dec.Decode(&p.hello); err != nil {
		_ = conn.Close()
		return nil, fmt.Errorf("dist: reading hello: %w", err)
	}
	if p.hello.Kind != frame.KindHello {
		_ = conn.Close()
		return nil, fmt.Errorf("dist: first frame is %v, want hello", p.hello.Kind)
	}
	return p, nil
}

// Node returns the node ID the peer introduced itself as.
func (p *Peer) Node() graph.NodeID { return p.hello.Node }

// Fleet connects the coordinator to its actor nodes, one Conn per node.
// Connect is called once per node, in ascending node-ID order, by
// NewCoordinator; Close tears down whatever the fleet started (goroutines,
// processes, listeners). Fleets are single-use: one fleet per run.
type Fleet interface {
	Connect(id graph.NodeID) (*Peer, error)
	Close() error
}

// LocalFleet hosts each Program on its own goroutine behind a synchronous
// in-memory pipe — the default, zero-setup transport: full actor isolation
// (nodes interact with the run only through frames) without process
// overhead.
type LocalFleet struct {
	programs map[graph.NodeID]radio.Program
	conns    []net.Conn
	wg       sync.WaitGroup
}

// NewLocalFleet serves the given programs. The map is also the node set
// check: NewCoordinator fails if a graph node has no program.
func NewLocalFleet(programs map[graph.NodeID]radio.Program) *LocalFleet {
	return &LocalFleet{programs: programs}
}

// Connect starts id's node host goroutine and returns the coordinator end.
func (f *LocalFleet) Connect(id graph.NodeID) (*Peer, error) {
	prog := f.programs[id]
	if prog == nil {
		return nil, fmt.Errorf("dist: no program for node %d", id)
	}
	local, remote := net.Pipe()
	f.conns = append(f.conns, local)
	f.wg.Add(1)
	go func() {
		defer f.wg.Done()
		_ = ServeNode(remote, id, prog)
		_ = remote.Close()
	}()
	return newPeer(local)
}

// Close closes the coordinator ends; node goroutines exit on the resulting
// read error (goroutines stuck inside a hung Program — the barrier-timeout
// fault being simulated — are left behind; only tests do that, on purpose).
func (f *LocalFleet) Close() error {
	for _, c := range f.conns {
		_ = c.Close()
	}
	return nil
}

// procConn adapts a child process's stdio pipes to Conn. Reads come from
// the child's stdout, writes go to its stdin; Close closes stdin (the
// child's serve loop exits on EOF), kills the process if it lingers, and
// reaps it.
type procConn struct {
	cmd    *exec.Cmd
	stdin  io.WriteCloser
	stdout io.ReadCloser
	once   sync.Once
	waited chan struct{}
}

func (c *procConn) Read(p []byte) (int, error)  { return c.stdout.Read(p) }
func (c *procConn) Write(p []byte) (int, error) { return c.stdin.Write(p) }

func (c *procConn) SetWriteDeadline(t time.Time) error {
	if f, ok := c.stdin.(*os.File); ok {
		return f.SetWriteDeadline(t)
	}
	return nil
}

func (c *procConn) Close() error {
	c.once.Do(func() {
		_ = c.stdin.Close()
		done := make(chan error, 1)
		go func() { done <- c.cmd.Wait() }()
		select {
		case <-done:
		//lint:ignore dynlint/nondeterminism process reaping is wall-clock by nature: the grace period only bounds teardown of an external child, after the simulation's result is already final
		case <-time.After(2 * time.Second):
			_ = c.cmd.Process.Kill()
			<-done
		}
		close(c.waited)
	})
	<-c.waited
	return nil
}

// ProcFleet launches one OS process per node. Command builds the unstarted
// child for a node — typically `dnode -scenario run.dsn -node <id>` — whose
// stdin/stdout speak the frame protocol (cmd/dnode wires ServeNode to
// them). Stderr passes through to the parent's for diagnostics.
type ProcFleet struct {
	Command func(id graph.NodeID) *exec.Cmd
	conns   []*procConn
}

// Connect starts id's process.
func (f *ProcFleet) Connect(id graph.NodeID) (*Peer, error) {
	cmd := f.Command(id)
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if cmd.Stderr == nil {
		cmd.Stderr = os.Stderr
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("dist: starting node %d: %w", id, err)
	}
	conn := &procConn{cmd: cmd, stdin: stdin, stdout: stdout, waited: make(chan struct{})}
	f.conns = append(f.conns, conn)
	peer, err := newPeer(conn)
	if err != nil {
		_ = conn.Close()
		return nil, fmt.Errorf("dist: node %d process: %w", id, err)
	}
	return peer, nil
}

// Close tears down every child process.
func (f *ProcFleet) Close() error {
	for _, c := range f.conns {
		_ = c.Close()
	}
	return nil
}
