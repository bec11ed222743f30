package notify

import (
	"errors"
	"fmt"
	"net"
	"sync"
)

// maxUDPPayload bounds one datagram; notifications larger than this are
// rejected at send time rather than silently truncated.
const maxUDPPayload = 60 * 1024

// errUDPClosed reports a Send on a closed transport.
var errUDPClosed = errors.New("notify/udp: transport closed")

// UDPTransport delivers one JSON notification per datagram. UDP gives
// the demo its fire-and-forget transport; delivery is best-effort by
// design, so only local errors (encode, oversize, socket) are reported.
type UDPTransport struct {
	mu     sync.Mutex
	conns  map[string]*net.UDPConn
	closed bool
}

// NewUDPTransport returns a UDP transport.
func NewUDPTransport() *UDPTransport {
	return &UDPTransport{conns: make(map[string]*net.UDPConn)}
}

// Name implements Transport.
func (t *UDPTransport) Name() string { return "udp" }

// Send implements Transport.
func (t *UDPTransport) Send(addr string, n Notification) error {
	b, err := n.Encode()
	if err != nil {
		return err
	}
	if len(b) > maxUDPPayload {
		return fmt.Errorf("notify/udp: notification of %d bytes exceeds datagram limit %d", len(b), maxUDPPayload)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return errUDPClosed
	}
	conn := t.conns[addr]
	if conn == nil {
		ua, err := net.ResolveUDPAddr("udp", addr)
		if err != nil {
			return fmt.Errorf("notify/udp: resolve %s: %w", addr, err)
		}
		conn, err = net.DialUDP("udp", nil, ua)
		if err != nil {
			return fmt.Errorf("notify/udp: dial %s: %w", addr, err)
		}
		t.conns[addr] = conn
	}
	if _, err := conn.Write(b); err != nil {
		conn.Close()
		delete(t.conns, addr)
		return fmt.Errorf("notify/udp: write to %s: %w", addr, err)
	}
	return nil
}

// Close implements Transport; later Sends fail.
func (t *UDPTransport) Close() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.closed = true
	var firstErr error
	for addr, c := range t.conns {
		if err := c.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
		delete(t.conns, addr)
	}
	return firstErr
}

// UDPSink receives notifications sent by UDPTransport.
type UDPSink struct {
	conn *net.UDPConn
	wg   sync.WaitGroup
}

// NewUDPSink binds addr and invokes handle per received notification.
func NewUDPSink(addr string, handle func(Notification)) (*UDPSink, error) {
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("notify/udp: resolve %s: %w", addr, err)
	}
	conn, err := net.ListenUDP("udp", ua)
	if err != nil {
		return nil, fmt.Errorf("notify/udp: listen %s: %w", addr, err)
	}
	s := &UDPSink{conn: conn}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		buf := make([]byte, maxUDPPayload)
		for {
			n, _, err := conn.ReadFromUDP(buf)
			if err != nil {
				return // socket closed
			}
			if note, err := DecodeNotification(buf[:n]); err == nil {
				handle(note)
			}
		}
	}()
	return s, nil
}

// Addr returns the bound address.
func (s *UDPSink) Addr() string { return s.conn.LocalAddr().String() }

// Close stops the sink.
func (s *UDPSink) Close() error {
	err := s.conn.Close()
	s.wg.Wait()
	return err
}
