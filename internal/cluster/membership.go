package cluster

import (
	"errors"
	"fmt"
	"net"
	"sync"

	"heap/internal/obs"
)

// Elastic membership (§V, ROADMAP items 3 and 5): the secondary set is no
// longer fixed at startup. Nodes join through a listener by completing the
// params-digest handshake (FrameJoin/FrameJoinAck), a running
// bootstrap picks them up mid-run and they start draining the shared work
// queue, and nodes that leave gracefully (FrameLeave) are drained with their
// pending LWE indices put back on the work queue, the same way a failed link
// is given up.

// MemberState is a node's lifecycle state in the membership registry.
type MemberState int

const (
	// MemberActive nodes receive work.
	MemberActive MemberState = iota
	// MemberLeft nodes drained gracefully; the name may rejoin.
	MemberLeft
	// MemberDead nodes failed (a broken link, a failed key upload, a batch
	// past its deadline); the name may rejoin — which is how a node killed
	// mid-key-upload resumes.
	MemberDead
)

func (s MemberState) String() string {
	switch s {
	case MemberActive:
		return "active"
	case MemberLeft:
		return "left"
	case MemberDead:
		return "dead"
	}
	return "unknown"
}

// Membership is the registry a bootstrap reads joiners from while it runs.
// Joins arrive through AcceptJoins (or a direct Join call); the scheduler
// consumes them from joinCh and spawns a node worker per joiner.
// A name whose previous instance failed or left may rejoin — the rejoining
// connection inherits nothing from the old one except the partial key its
// Secondary's KeyReceiver kept, which is exactly what makes a
// kill-mid-upload resume work.
type Membership struct {
	mu     sync.Mutex
	rec    obs.Recorder
	state  map[string]MemberState
	joinCh chan *Node
}

// NewMembership returns an empty registry.
func NewMembership() *Membership {
	return &Membership{
		rec:    obs.Nop{},
		state:  make(map[string]MemberState),
		joinCh: make(chan *Node, 64),
	}
}

// SetRecorder installs the recorder for the cluster-members gauge. The
// members already active move from the old recorder to the new one, so a
// node that joined before a bootstrap installed its recorder and dies during
// the run nets to zero on both. Every gauge update picks its recorder under
// the same lock that changes the member's state, so the sums stay exact
// however the updates interleave.
func (m *Membership) SetRecorder(r obs.Recorder) {
	r = obs.OrNop(r)
	m.mu.Lock()
	old := m.rec
	m.rec = r
	var active int64
	for _, st := range m.state {
		if st == MemberActive {
			active++
		}
	}
	m.mu.Unlock()
	old.Gauge(obs.GaugeClusterMembers, -active)
	r.Gauge(obs.GaugeClusterMembers, active)
}

// Join registers a node as active and queues it for the running (or next)
// bootstrap. A name that is currently active is rejected; a name whose
// previous instance left or died rejoins.
func (m *Membership) Join(node *Node) error {
	if node.Name == "" {
		return errors.New("cluster: joining node needs a name")
	}
	m.mu.Lock()
	if st, ok := m.state[node.Name]; ok && st == MemberActive {
		m.mu.Unlock()
		return fmt.Errorf("cluster: node %q is already an active member", node.Name)
	}
	select {
	case m.joinCh <- node:
	default:
		m.state[node.Name] = MemberDead
		m.mu.Unlock()
		return fmt.Errorf("cluster: join backlog full, node %q rejected", node.Name)
	}
	m.state[node.Name] = MemberActive
	rec := m.rec
	m.mu.Unlock()
	rec.Gauge(obs.GaugeClusterMembers, 1)
	return nil
}

// markDown transitions an active member to Left or Dead.
func (m *Membership) markDown(name string, st MemberState) {
	if name == "" {
		return
	}
	m.mu.Lock()
	cur, ok := m.state[name]
	m.state[name] = st
	rec := m.rec
	m.mu.Unlock()
	if ok && cur == MemberActive {
		rec.Gauge(obs.GaugeClusterMembers, -1)
	}
}

// State reports a member's lifecycle state.
func (m *Membership) State(name string) (MemberState, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	st, ok := m.state[name]
	return st, ok
}

// Listener accepts join connections. net.Listener satisfies it through
// ListenerFrom; PipeListener provides the in-memory form tests and the
// churn demo use.
type Listener interface {
	Accept() (Conn, error)
}

// ListenerFrom adapts a net.Listener to the cluster Listener interface, the
// accept surface AcceptJoins and the serving layer consume (PipeListener is
// the in-process equivalent).
func ListenerFrom(l net.Listener) Listener { return netListener{l} }

type netListener struct{ l net.Listener }

func (n netListener) Accept() (Conn, error) { return n.l.Accept() }

// PipeListener is an in-memory listener: every Dial produces a net.Pipe
// whose far end comes out of Accept.
type PipeListener struct {
	ch     chan Conn
	closed chan struct{}
	once   sync.Once
}

// NewPipeListener returns an open in-memory listener.
func NewPipeListener() *PipeListener {
	return &PipeListener{ch: make(chan Conn), closed: make(chan struct{})}
}

// Dial connects a new pipe through the listener, returning the client end.
func (l *PipeListener) Dial() (Conn, error) {
	client, server := net.Pipe()
	select {
	case l.ch <- server:
		return client, nil
	case <-l.closed:
		_ = client.Close()
		_ = server.Close()
		return nil, errors.New("cluster: listener closed")
	}
}

// Accept returns the server end of the next dialed pipe.
func (l *PipeListener) Accept() (Conn, error) {
	select {
	case c := <-l.ch:
		return c, nil
	case <-l.closed:
		return nil, errors.New("cluster: listener closed")
	}
}

// Close unblocks Accept and fails future Dials.
func (l *PipeListener) Close() error {
	l.once.Do(func() { close(l.closed) })
	return nil
}

// AcceptJoins runs the join side of the membership: it accepts connections
// from l, accepts each one's join (AcceptJoin: params digest included, so an
// alien parameter set is refused at the door) and registers the joiner with
// m before the ack goes out. It returns when the listener closes. Run it in
// its own goroutine alongside Primary.Bootstrap.
func (p *Primary) AcceptJoins(m *Membership, l Listener) error {
	for {
		conn, err := l.Accept()
		if err != nil {
			return nil
		}
		go func() {
			registered := "" // set once m holds the node; markDown ignores ""
			_, err := AcceptJoin(conn, HelloFor(p.Boot), p.Boot.Recorder(), func(peer Hello, name string) error {
				err := m.Join(&Node{Conn: conn, Name: name, joined: true, needsKey: peer.Flags&helloFlagKeyWarm == 0})
				if err == nil {
					registered = name
				}
				return err
			})
			if err != nil {
				m.markDown(registered, MemberDead)
				closeConn(conn)
			}
		}()
	}
}

// JoinAndServe joins the cluster through conn (Join, under name and with the
// node's key-warm flag) and then serves blind-rotation work on it — the whole
// life of an elastic secondary. A cold node receives its blind-rotate key
// over the same connection (chunked and resumable) before any batch work.
func (s *Secondary) JoinAndServe(conn Conn, name string) error {
	if err := Join(conn, HelloFor(s.Boot), name, s.Boot.Recorder()); err != nil {
		return err
	}
	return s.serveLoop(conn)
}
