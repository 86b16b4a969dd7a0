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
// Joins arrive through AcceptJoins; the scheduler consumes them from joinCh
// and spawns a node worker per joiner. A name whose previous instance failed
// or left may rejoin — the rejoining connection inherits nothing from the
// old one except the partial key the node's registry kept for its primary
// (one KeyReceiver per tenant), which is exactly what makes a
// kill-mid-upload resume work.
type Membership struct {
	mu     sync.Mutex
	rec    obs.Recorder
	state  map[string]MemberState
	joinCh chan *Node
	held   int // backlog slots admitted joiners hold until delivered
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

// admit registers name as active and holds a place in the join backlog for
// it. A name that is currently active is refused, and so is any name when the
// backlog is full; a name whose previous instance left or died rejoins. The
// node reaches a bootstrap only through deliver, so its ack can go out first.
func (m *Membership) admit(name string) error {
	m.mu.Lock()
	if st, ok := m.state[name]; ok && st == MemberActive {
		m.mu.Unlock()
		return fmt.Errorf("cluster: node %q is already an active member", name)
	}
	if len(m.joinCh)+m.held >= cap(m.joinCh) {
		m.state[name] = MemberDead
		m.mu.Unlock()
		return fmt.Errorf("cluster: join backlog full, node %q rejected", name)
	}
	m.held++
	m.state[name] = MemberActive
	rec := m.rec
	m.mu.Unlock()
	rec.Gauge(obs.GaugeClusterMembers, 1)
	return nil
}

// deliver queues an admitted node for the running (or next) bootstrap. The
// send cannot block: the node holds a backlog slot.
func (m *Membership) deliver(node *Node) {
	m.joinCh <- node
	m.mu.Lock()
	m.held--
	m.mu.Unlock()
}

// markDown transitions an active member to Left or Dead.
func (m *Membership) markDown(name string, st MemberState) {
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
// ListenerFrom; PipeListener provides the in-memory form the tests and
// examples/multifpga use.
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
// from l and each one's join (AcceptJoin, which refuses an alien parameter
// set; m refuses an active name or a full backlog), and hands the joiner to m
// once its ack is written, so a running bootstrap's first frame follows it.
// It returns when the listener closes. Run it beside Primary.Bootstrap.
func (p *Primary) AcceptJoins(m *Membership, l Listener) error {
	for {
		conn, err := l.Accept()
		if err != nil {
			return nil
		}
		go func() {
			var needsKey bool
			name, _ := AcceptJoin(conn, HelloFor(p.Boot), p.Boot.Recorder(), func(peer Hello, name string) error {
				needsKey = peer.Flags&HelloFlagKeyWarm == 0
				return m.admit(name)
			})
			// A name means admitted. One whose ack write failed is handed over
			// too: its link fails at the first batch, as any dead link does.
			if name == "" {
				closeConn(conn)
				return
			}
			m.deliver(&Node{Conn: conn, Name: name, joined: true, needsKey: needsKey})
		}()
	}
}
