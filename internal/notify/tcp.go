package notify

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"
)

// TCPTransport delivers newline-delimited JSON notifications over TCP.
// Connections are cached per destination and re-dialed transparently
// after failures (the retry loop of the engine then re-sends). Each
// destination dials and writes under its own lock, so a subscriber that
// stops reading stalls only the sends addressed to it.
type TCPTransport struct {
	dialTimeout time.Duration

	mu     sync.Mutex // guards dests, closed and every tcpDest.conn write; held for no I/O
	dests  map[string]*tcpDest
	closed bool
}

// tcpDest is one destination's cached connection. mu serialises the
// dial and the writes to it. conn changes only under both mu and the
// transport's mu, so Close can read it without waiting for a stalled
// write, and closing it unblocks that write.
type tcpDest struct {
	mu   sync.Mutex
	conn net.Conn
}

// errTCPClosed reports a Send on a closed transport.
var errTCPClosed = errors.New("notify/tcp: transport closed")

// NewTCPTransport returns a TCP transport with the given dial timeout
// (<=0 selects 2s).
func NewTCPTransport(dialTimeout time.Duration) *TCPTransport {
	if dialTimeout <= 0 {
		dialTimeout = 2 * time.Second
	}
	return &TCPTransport{dialTimeout: dialTimeout, dests: make(map[string]*tcpDest)}
}

// Name implements Transport.
func (t *TCPTransport) Name() string { return "tcp" }

// Send implements Transport.
func (t *TCPTransport) Send(addr string, n Notification) error {
	b, err := n.Encode()
	if err != nil {
		return err
	}
	b = append(b, '\n')

	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return errTCPClosed
	}
	d := t.dests[addr]
	if d == nil {
		d = &tcpDest{}
		t.dests[addr] = d
	}
	t.mu.Unlock()

	d.mu.Lock()
	defer d.mu.Unlock()
	if d.conn == nil {
		conn, err := net.DialTimeout("tcp", addr, t.dialTimeout)
		if err != nil {
			return fmt.Errorf("notify/tcp: dial %s: %w", addr, err)
		}
		if !t.setConn(d, conn) {
			conn.Close()
			return errTCPClosed
		}
	}
	if _, err := d.conn.Write(b); err != nil {
		// Connection went stale (or Close shut it): drop it so the
		// retry re-dials.
		conn := d.conn
		t.setConn(d, nil)
		conn.Close()
		return fmt.Errorf("notify/tcp: write to %s: %w", addr, err)
	}
	return nil
}

// setConn installs conn as d's connection, or forgets it when conn is
// nil. It refuses a new connection once the transport is closed, so a
// Send racing Close cannot leave one open. Callers hold d.mu.
func (t *TCPTransport) setConn(d *tcpDest, conn net.Conn) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed && conn != nil {
		return false
	}
	d.conn = conn
	return true
}

// Close implements Transport. It closes every cached connection, which
// also unblocks a Send stuck writing to a peer that stopped reading;
// later Sends fail.
func (t *TCPTransport) Close() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.closed = true
	var firstErr error
	for _, d := range t.dests {
		if d.conn == nil {
			continue
		}
		if err := d.conn.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	t.dests = nil
	return firstErr
}

// TCPSink is the receiving side used by the demo and the tests: it
// accepts connections, decodes one notification per line and hands each
// to the callback.
type TCPSink struct {
	ln net.Listener
	wg sync.WaitGroup

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
}

// NewTCPSink listens on addr ("127.0.0.1:0" for an ephemeral port) and
// invokes handle for every received notification.
func NewTCPSink(addr string, handle func(Notification)) (*TCPSink, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("notify/tcp: listen %s: %w", addr, err)
	}
	s := &TCPSink{ln: ln, conns: make(map[net.Conn]struct{})}
	s.wg.Add(1)
	go s.acceptLoop(handle)
	return s, nil
}

// Addr returns the bound address.
func (s *TCPSink) Addr() string { return s.ln.Addr().String() }

func (s *TCPSink) acceptLoop(handle func(Notification)) {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer func() {
				conn.Close()
				s.mu.Lock()
				delete(s.conns, conn)
				s.mu.Unlock()
			}()
			sc := bufio.NewScanner(conn)
			sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
			for sc.Scan() {
				if n, err := DecodeNotification(sc.Bytes()); err == nil {
					handle(n)
				}
			}
		}()
	}
}

// Close stops the sink: the listener and every accepted connection are
// closed, so peers observe the shutdown on their next write.
func (s *TCPSink) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	return s.ln.Close()
}
