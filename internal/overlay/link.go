package overlay

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"stopss/internal/message"
	"stopss/internal/metrics"
)

// Errors returned by link.send.
var (
	errLinkClosed = errors.New("overlay: link closed")
	errLinkSlow   = errors.New("overlay: peer too slow, link dropped")
)

// outqCap bounds the per-link outbound queue. A full queue means the
// peer is not draining its socket; the link is sacrificed rather than
// letting backpressure propagate into the routing lock (which could
// distributed-deadlock two mutually publishing nodes).
const outqCap = 1024

// link is one established peer connection. Routing state attached to
// the link (interests, the outbound cover table) is guarded by
// the owning Node's mutex; conn writes happen on a dedicated writer
// goroutine fed by a bounded queue, so callers never block on the
// network.
type link struct {
	conn Conn
	bw   *bufio.Writer
	br   *bufio.Reader

	peer string // peer node name, fixed by the hello exchange

	// Encode scratch (writer goroutine only): frames are encoded here
	// first — so an oversized or unencodable frame is detected
	// before any byte reaches the connection and can be dropped without
	// desyncing the stream — then copied into bw. The buffer and the
	// interning dictionary persist for the link's lifetime, so steady
	// state encodes without allocating.
	enc message.BWriter

	// Decode state (read-loop goroutine only): the reusable body buffer
	// and the receive-direction dictionary mirroring the peer's encoder.
	rbuf  []byte
	rdict *message.Intern

	outq chan outFrame
	done chan struct{}
	once sync.Once

	// inflight counts frames accepted by send but not yet flushed onto
	// the connection. It spans the outbound queue AND the writer's
	// buffered batch, so a zero value means this link holds no
	// unserialized outbound work — the property simulation harnesses
	// poll (via Node.Pending) to detect quiescence without timers.
	// Frames stranded in the queue when the link closes are never
	// drained, so Pending ignores inflight for closed links (the race
	// where send enqueues between the writer's exit and close would
	// otherwise wedge quiescence forever).
	inflight atomic.Int64

	// Per-link frame counters and the queue-wait histogram (time a
	// frame spends between send's enqueue and the writer picking it
	// up — the per-link backpressure signal of DESIGN §10), bound by
	// the Node at attach time so the hot paths skip registry lookups.
	sent, recv *metrics.Counter
	// oversized counts frames dropped because their encoded body
	// exceeded maxFrameSize (node-wide counter, bound at attach).
	oversized *metrics.Counter
	qwait     *metrics.Histogram
	// logf receives drop warnings (bound to the node's logger at
	// attach; nil before that and in tests).
	logf func(format string, args ...any)

	// interests holds subscriptions received FROM this link: the
	// downstream demand reachable through the peer. Publications are
	// forwarded along the link only when one of these matches.
	interests map[routeID]routeEntry
	// out tracks what this node has forwarded to the peer, with
	// covering-based suppression.
	out *coverTable
}

// handshakeTimeout bounds the hello exchange on a new connection.
const handshakeTimeout = 5 * time.Second

// newLink wraps an accepted or dialed connection and performs the hello
// exchange: each side writes its preamble (wire.go) and reads the
// peer's. The writer goroutine is not yet running; the handshake writes
// directly.
func newLink(conn Conn, localName string) (*link, error) {
	l := &link{
		conn:      conn,
		bw:        bufio.NewWriter(conn),
		br:        bufio.NewReader(conn),
		enc:       message.BWriter{Dict: message.NewIntern()},
		rdict:     message.NewIntern(),
		outq:      make(chan outFrame, outqCap),
		done:      make(chan struct{}),
		interests: make(map[routeID]routeEntry),
		out:       newCoverTable(),
	}
	fail := func(err error) (*link, error) {
		conn.Close()
		return nil, err
	}
	conn.SetDeadline(time.Now().Add(handshakeTimeout))
	if _, err := conn.Write(helloPreamble(localName)); err != nil {
		return fail(fmt.Errorf("overlay: hello to %s: %w", conn.RemoteAddr(), err))
	}
	peer, err := readHello(l.br)
	if err != nil {
		switch {
		case isTimeout(err):
			err = errHelloTimeout
		case !errors.Is(err, errHelloVersion) && !errors.Is(err, errHelloMalformed):
			// A hang-up or reset mid-hello: not a peer speaking this protocol.
			err = fmt.Errorf("%w (%v)", errHelloMalformed, err)
		}
		return fail(fmt.Errorf("overlay: awaiting hello from %s: %w", conn.RemoteAddr(), err))
	}
	if peer == localName {
		return fail(fmt.Errorf("overlay: peer %s has this node's own name %q", conn.RemoteAddr(), peer))
	}
	l.peer = peer
	conn.SetDeadline(time.Time{})
	return l, nil
}

// isTimeout reports whether a handshake read failed on the connection
// deadline rather than on the peer's bytes.
func isTimeout(err error) bool {
	if errors.Is(err, os.ErrDeadlineExceeded) {
		return true
	}
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// writeFrame encodes one outbound frame into the link's buffered
// writer. Droppable failures (see droppableWriteError) are reported
// before any byte reaches the stream, and the interning dictionary is
// rolled back so the peer's table stays in sync. Writer goroutine only.
func (l *link) writeFrame(f Frame) error {
	mark := l.enc.Dict.Mark()
	l.enc.Reset()
	if err := appendFrameBinary(&l.enc, f); err != nil {
		l.enc.Dict.Rollback(mark)
		return err
	}
	if l.enc.Len() > maxFrameSize {
		l.enc.Dict.Rollback(mark)
		return fmt.Errorf("overlay: %s frame of %d bytes: %w", f.Type, l.enc.Len(), errFrameTooLarge)
	}
	var hdr [binary.MaxVarintLen32]byte
	n := binary.PutUvarint(hdr[:], uint64(l.enc.Len()))
	if _, err := l.bw.Write(hdr[:n]); err != nil {
		return err
	}
	_, err := l.bw.Write(l.enc.Buf)
	return err
}

// outFrame is one queued outbound frame stamped with its enqueue time,
// so the writer can report how long it waited for the socket.
type outFrame struct {
	f  Frame
	at time.Time
}

// writer drains the outbound queue onto the socket, batching frames
// already queued before each flush. It exits when the link fails or is
// closed. Frames whose encoding fails before touching the stream
// (oversized bodies — a journal payload can exceed maxFrameSize once
// trace spans inflate the frame) are dropped and counted individually;
// only actual connection errors tear the link down.
func (l *link) writer(wg *sync.WaitGroup) {
	defer wg.Done()
	for {
		select {
		case of := <-l.outq:
			batch := int64(1)
			if err := l.emit(of, &batch); err != nil {
				l.inflight.Add(-batch)
				l.close()
				return
			}
		drain:
			for {
				select {
				case of := <-l.outq:
					batch++
					if err := l.emit(of, &batch); err != nil {
						l.inflight.Add(-batch)
						l.close()
						return
					}
				default:
					break drain
				}
			}
			if err := l.bw.Flush(); err != nil {
				l.inflight.Add(-batch)
				l.close()
				return
			}
			// Only after the flush has the batch truly left this node;
			// decrementing earlier would let Pending read zero while
			// frames sit in the bufio buffer.
			l.inflight.Add(-batch)
		case <-l.done:
			return
		}
	}
}

// emit writes one dequeued frame into the buffered writer. A droppable
// encoding failure discards the frame — its inflight count is settled
// immediately and it leaves the batch — and keeps the link; any other
// error is a connection failure the caller must close on (the caller
// settles the remaining batch).
func (l *link) emit(of outFrame, batch *int64) error {
	l.observeWait(of)
	err := l.writeFrame(of.f)
	if err == nil {
		return nil
	}
	if droppableWriteError(err) {
		*batch--
		l.inflight.Add(-1)
		if l.oversized != nil {
			l.oversized.Inc()
		}
		if l.logf != nil {
			l.logf("overlay: dropping %s frame to %s: %v", of.f.Type, l.peer, err)
		}
		return nil
	}
	return err
}

// observeWait feeds the per-link queue-wait histogram.
func (l *link) observeWait(of outFrame) {
	if l.qwait != nil {
		l.qwait.Observe(time.Since(of.at))
	}
}

// send enqueues one frame without ever blocking on the network. A full
// queue drops the link (slow peer) instead of stalling the caller.
func (l *link) send(f Frame) error {
	select {
	case <-l.done:
		return errLinkClosed
	default:
	}
	// Count the frame before enqueueing so there is no instant where it
	// sits in the queue uncounted (quiescence detection relies on this).
	l.inflight.Add(1)
	select {
	case l.outq <- outFrame{f: f, at: time.Now()}:
		if l.sent != nil {
			l.sent.Inc()
		}
		return nil
	default:
		l.inflight.Add(-1)
		l.close()
		return errLinkSlow
	}
}

// close tears the connection down (idempotent); the read and writer
// loops exit on the resulting error/signal.
func (l *link) close() {
	l.once.Do(func() {
		close(l.done)
		l.conn.Close()
	})
}
