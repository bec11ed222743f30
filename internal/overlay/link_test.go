package overlay

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"stopss/internal/broker"
	"stopss/internal/core"
	"stopss/internal/message"
	"stopss/internal/notify"
)

// TestOversizedFrameDropsFrameNotLink is the regression test for the
// link-teardown bug: a single publication whose encoded frame exceeds
// maxFrameSize used to error inside link.writer, which closed the whole
// link — one big publication tore down the peering and re-dial loops
// forever. The writer must instead drop that one frame (counted in
// overlay.frames_oversized) and keep the link carrying everything else.
func TestOversizedFrameDropsFrameNotLink(t *testing.T) {
	a := newTestBroker(t, "A")
	b := newTestBroker(t, "B")
	if err := b.node.Dial(a.node.Addr()); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "link up", func() bool { return len(a.node.Peers()) == 1 })

	b.subscribe(t, "bob", message.Pred("x", message.OpGe, message.Int(0)))
	waitFor(t, "subscription at A", func() bool {
		return a.b.Stats().Remote.RemoteSubs == 1
	})

	if _, err := a.b.Publish(message.E("x", 1)); err != nil {
		t.Fatal(err)
	}
	expectNotification(t, b.ch, "bob")

	// The oversized publication matches bob too, so A routes it at the
	// link — where encoding must drop it.
	big := message.E("x", 2, "payload", message.String(strings.Repeat("p", maxFrameSize)))
	if _, err := a.b.Publish(big); err != nil {
		t.Fatal(err)
	}
	oversized := a.node.Registry().Counter("overlay.frames_oversized")
	waitFor(t, "oversized frame counted", func() bool { return oversized.Value() == 1 })
	expectSilence(t, b.ch)

	// The link survived: still peered, and the next publication flows
	// through it.
	if got := len(a.node.Peers()); got != 1 {
		t.Fatalf("oversized frame tore down the link: %d peers", got)
	}
	if _, err := a.b.Publish(message.E("x", 3)); err != nil {
		t.Fatal(err)
	}
	n := expectNotification(t, b.ch, "bob")
	if v, _ := n.Event.Get("x"); v.IntVal() != 3 {
		t.Fatalf("follow-up event corrupted: %v", n.Event)
	}
	// And the drop did not strand quiescence accounting.
	waitFor(t, "inflight settled", func() bool { return a.node.Pending() == 0 })
}

// pipeConn adapts one end of net.Pipe to the overlay Conn interface.
type pipeConn struct{ net.Conn }

func (c pipeConn) RemoteAddr() string { return "pipe" }

// timeoutConn simulates a peer that connects and goes silent: reads
// fail like an expired deadline, writes succeed.
type timeoutConn struct{}

func (timeoutConn) Read(p []byte) (int, error)  { return 0, os.ErrDeadlineExceeded }
func (timeoutConn) Write(p []byte) (int, error) { return len(p), nil }
func (timeoutConn) Close() error                { return nil }
func (timeoutConn) SetDeadline(time.Time) error { return nil }
func (timeoutConn) RemoteAddr() string          { return "stub" }

// helloSentinels are the mutually exclusive classes a failed hello
// exchange reports.
var helloSentinels = []error{errHelloTimeout, errHelloMalformed, errHelloVersion}

// TestNewLinkHelloErrors pins the error taxonomy of the hello exchange:
// a silent peer surfaces as errHelloTimeout, anything that is not a
// hello preamble (garbage, the retired JSON hello, a hang-up) as
// errHelloMalformed, a broker of another protocol version as
// errHelloVersion — each exactly one class, so the caller's log line
// says which.
func TestNewLinkHelloErrors(t *testing.T) {
	classify := func(t *testing.T, err error, want error) {
		t.Helper()
		for _, s := range helloSentinels {
			if errors.Is(err, s) != (s == want) {
				t.Fatalf("got %v, want exactly %v", err, want)
			}
		}
	}

	t.Run("silent peer", func(t *testing.T) {
		_, err := newLink(timeoutConn{}, "local")
		classify(t, err, errHelloTimeout)
	})

	// The far end of a pipe drains our hello and answers with the
	// scripted bytes while newLink handshakes on the near end.
	for _, tc := range []struct {
		name   string
		answer []byte
		want   error // nil: refused, but by none of the sentinels
	}{
		{"garbage bytes", []byte{0, 0, 0, 2, '{', ']'}, errHelloMalformed},
		{"legacy JSON hello", legacyJSONHello(), errHelloMalformed},
		{"hang-up mid-hello", helloPreamble("peer")[:5], errHelloMalformed},
		{"older version", helloWithVersion(protocolVersion - 1), errHelloVersion},
		{"newer version", helloWithVersion(protocolVersion + 1), errHelloVersion},
		{"own name", helloPreamble("local"), nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			near, far := net.Pipe()
			done := make(chan struct{})
			go func() {
				defer close(done)
				far.Read(make([]byte, 4096))
				far.Write(tc.answer)
				far.Close()
			}()
			_, err := newLink(pipeConn{near}, "local")
			<-done
			if err == nil {
				t.Fatal("hello accepted")
			}
			classify(t, err, tc.want)
			if tc.want == nil && !strings.Contains(err.Error(), "own name") {
				t.Fatalf("got %v, want own-name rejection", err)
			}
		})
	}
}

// TestRefusedHelloLeavesNoLink drives the refusals through a real node
// over TCP, on both ends: a foreign peer dialing in, and the node
// dialing out to one. Either way the refusal is prompt, carries its
// sentinel, and leaves no link, goroutine or Pending count behind; the
// accepting side's log names the version the peer announced.
func TestRefusedHelloLeavesNoLink(t *testing.T) {
	for _, tc := range []struct {
		name   string
		hello  []byte
		want   error
		logged string
	}{
		{"version mismatch", helloWithVersion(protocolVersion + 1), errHelloVersion,
			fmt.Sprintf("peer speaks version %d", protocolVersion+1)},
		{"legacy JSON hello", legacyJSONHello(), errHelloMalformed, "malformed hello"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var logMu sync.Mutex
			var logs []string
			nt, err := notify.NewEngine(notify.Config{Workers: 1}, &chanTransport{})
			if err != nil {
				t.Fatal(err)
			}
			defer nt.Close()
			node, err := NewNode(Config{Name: "A", Listen: "127.0.0.1:0", Logf: func(format string, args ...any) {
				logMu.Lock()
				logs = append(logs, fmt.Sprintf(format, args...))
				logMu.Unlock()
			}}, broker.New(core.NewEngine(nil), nt))
			if err != nil {
				t.Fatal(err)
			}
			if err := node.Start(); err != nil {
				t.Fatal(err)
			}
			defer node.Close()
			goroutines := runtime.NumGoroutine()
			start := time.Now()

			// Accepting end: the foreign peer dials in, says its hello and
			// reads until the node hangs up on it.
			c, err := net.Dial("tcp", node.Addr())
			if err != nil {
				t.Fatal(err)
			}
			c.Write(tc.hello)
			io.Copy(io.Discard, c)
			c.Close()
			waitFor(t, "refusal logged", func() bool {
				logMu.Lock()
				defer logMu.Unlock()
				for _, line := range logs {
					if strings.Contains(line, tc.logged) {
						return true
					}
				}
				return false
			})

			// Dialing end: the node dials the foreign peer.
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
			served := make(chan struct{})
			go func() {
				defer close(served)
				c, err := ln.Accept()
				if err != nil {
					return
				}
				c.Write(tc.hello)
				io.Copy(io.Discard, c)
				c.Close()
			}()
			if err := node.Dial(ln.Addr().String()); !errors.Is(err, tc.want) {
				t.Fatalf("dialing a refused peer: got %v, want %v", err, tc.want)
			}
			<-served

			if elapsed := time.Since(start); elapsed >= handshakeTimeout {
				t.Fatalf("refusals took %v, want well under the %v handshake timeout", elapsed, handshakeTimeout)
			}
			if peers := node.Peers(); len(peers) != 0 {
				t.Fatalf("refused peer registered as a link: %v", peers)
			}
			if p := node.Pending(); p != 0 {
				t.Fatalf("Pending() = %d after refusals, want 0", p)
			}
			waitFor(t, "handshake goroutines gone", func() bool { return runtime.NumGoroutine() <= goroutines })
		})
	}
}

// failConn accepts writes into the void until failAfter bytes have
// arrived, then errors every write.
type failConn struct {
	mu        sync.Mutex
	written   int
	failAfter int
}

func (c *failConn) Read(p []byte) (int, error) { select {} }
func (c *failConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.written += len(p)
	if c.written > c.failAfter {
		return 0, errors.New("wire cut")
	}
	return len(p), nil
}
func (c *failConn) Close() error                { return nil }
func (c *failConn) SetDeadline(time.Time) error { return nil }
func (c *failConn) RemoteAddr() string          { return "failconn" }

// TestWriterErrorSettlesBatchInflight is the regression test for the
// inflight leak: the writer's error exits used to return without
// decrementing the partial batch, leaving inflight > 0 forever and
// wedging Node.Pending/sim.Settle quiescence.
func TestWriterErrorSettlesBatchInflight(t *testing.T) {
	l := &link{
		conn: &failConn{},
		enc:  message.BWriter{Dict: message.NewIntern()},
		outq: make(chan outFrame, outqCap),
		done: make(chan struct{}),
	}
	l.bw = bufio.NewWriter(l.conn)
	const frames = 5
	for i := 0; i < frames; i++ {
		if err := l.send(Frame{Type: frameUnsub, Origin: "a", SubID: message.SubID(i + 1)}); err != nil {
			t.Fatal(err)
		}
	}
	if got := l.inflight.Load(); got != frames {
		t.Fatalf("inflight %d before writer, want %d", got, frames)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go l.writer(&wg)
	wg.Wait() // writer must exit on the write error
	if got := l.inflight.Load(); got != 0 {
		t.Fatalf("writer exit leaked inflight = %d, want 0", got)
	}
	select {
	case <-l.done:
	default:
		t.Fatal("writer exit must close the link")
	}
}
