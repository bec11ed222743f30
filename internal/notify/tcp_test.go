package notify

import (
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"stopss/internal/message"
)

// stallListener accepts connections and never reads from them, like a
// subscriber process that hangs. Closing it resets every accepted
// connection, which unblocks a sender stuck in Write.
type stallListener struct {
	ln    net.Listener
	mu    sync.Mutex
	conns []net.Conn
}

func newStallListener(t *testing.T) *stallListener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := &stallListener{ln: ln}
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			s.mu.Lock()
			s.conns = append(s.conns, c)
			s.mu.Unlock()
		}
	}()
	return s
}

func (s *stallListener) close() {
	s.ln.Close()
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, c := range s.conns {
		c.Close()
	}
}

// TestTCPStalledSubscriberDoesNotBlockOthers: while one goroutine's
// Send is stuck writing to a subscriber that stopped reading, a Send to
// a healthy subscriber still completes.
func TestTCPStalledSubscriberDoesNotBlockOthers(t *testing.T) {
	stall := newStallListener(t)
	var col collector
	sink, err := NewTCPSink("127.0.0.1:0", col.add)
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()
	tr := NewTCPTransport(0)
	defer tr.Close()

	big := sampleNotification(1)
	big.Event = message.E("resume", strings.Repeat("x", 256<<10))
	var sent atomic.Int64
	stallerDone := make(chan struct{})
	go func() {
		defer close(stallerDone)
		for tr.Send(stall.ln.Addr().String(), big) == nil {
			sent.Add(1)
		}
	}()
	defer func() {
		stall.close() // resets the stalled connection: the staller's Write fails
		<-stallerDone
	}()

	// Wait until the socket buffers are full and the staller is stuck.
	last, quiet := int64(-1), 0
	for quiet < 20 {
		time.Sleep(10 * time.Millisecond)
		if n := sent.Load(); n == last {
			quiet++
		} else {
			last, quiet = n, 0
		}
	}

	done := make(chan error, 1)
	go func() { done <- tr.Send(sink.Addr(), sampleNotification(2)) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Send to a healthy subscriber blocked behind a stalled one")
	}
	col.waitFor(t, 1, 2*time.Second)
}

// TestTCPCloseRacingSend: Sends that race Close leave no connection
// open once Close and every Send have returned. Run with -race.
func TestTCPCloseRacingSend(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var open atomic.Int64
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			open.Add(1)
			go func() {
				io.Copy(io.Discard, c) // returns when the sender closes
				c.Close()
				open.Add(-1)
			}()
		}
	}()

	addr := ln.Addr().String()
	for round := 0; round < 50; round++ {
		tr := NewTCPTransport(0)
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 5; i++ {
					_ = tr.Send(addr, sampleNotification(message.SubID(i)))
				}
			}()
		}
		if round%2 == 1 {
			time.Sleep(time.Duration(round%5) * 100 * time.Microsecond)
		}
		if err := tr.Close(); err != nil {
			t.Fatalf("round %d: Close: %v", round, err)
		}
		wg.Wait()
	}
	deadline := time.Now().Add(5 * time.Second)
	for open.Load() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d connections still open after Close", open.Load())
		}
		time.Sleep(5 * time.Millisecond)
	}
}
