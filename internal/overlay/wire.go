// Package overlay federates S-ToPSS brokers into a multi-node
// publish/subscribe network: peer brokers connect over TCP and exchange
// length-prefixed frames that propagate subscriptions (with
// covering-based pruning) and publications. There is
// one wire format: a fixed hello preamble, then binary frames with
// per-link interned dictionaries (wire_binary.go).
//
// Routing model (the classic content-based federation scheme the
// Toronto group's later systems use):
//
//   - Subscriptions flood away from the subscriber's broker, hop by
//     hop, so every broker learns which of its links lead to
//     interested parties. A subscription is NOT forwarded on a link
//     when an already-forwarded one covers it (matching.Covers): the
//     covering subscription routes a superset of the covered one's
//     publications, so the covered entry adds no reachability.
//     Removing a covering subscription re-forwards whatever it was
//     suppressing (see coverTable).
//   - Publications travel only along links whose recorded remote
//     subscriptions match, carry the hop list for loop prevention and
//     a origin-sequence ID for duplicate suppression, and are matched
//     semantically at every broker they visit.
//
// Brokers must agree on the semantic knowledge for routing to be
// faithful: decisions canonicalize remote subscriptions and expand
// publications with the local semantic stage, which makes the
// forwarding predicate equivalent to the destination engine's own
// matching. The federation starts from one shared genesis ontology and
// evolves it at runtime through replicated knowledge deltas (kb
// frames, internal/knowledge): deltas flood like publications —
// hop-list loop prevention, origin-scoped dedup — are folded into
// every broker's versioned knowledge base in one canonical order, and
// each application re-canonicalizes the node's routing state so stale
// canonical forms cannot strand publications.
package overlay

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"stopss/internal/knowledge"
	"stopss/internal/message"
	"stopss/internal/trace"
)

// FrameType identifies a frame kind; its value is the type byte on the
// wire (never 0, so a zeroed byte is malformed).
type FrameType byte

const (
	frameSub   FrameType = iota + 1 // subscription propagation
	frameUnsub                      // subscription withdrawal
	framePub                        // publication forwarding
	frameKB                         // knowledge-delta replication
	frameTrace                      // trace report travelling BACK toward a pub's origin
	frameOps                        // broker health summary gossip (cluster introspection)
)

// frameNames maps every assigned frame type to its name in logs.
var frameNames = [...]string{
	frameSub: "sub", frameUnsub: "unsub", framePub: "pub", frameKB: "kb",
	frameTrace: "trace", frameOps: "ops",
}

// valid reports whether t is an assigned frame type.
func (t FrameType) valid() bool { return int(t) < len(frameNames) && frameNames[t] != "" }

func (t FrameType) String() string {
	if t.valid() {
		return frameNames[t]
	}
	return fmt.Sprintf("frame(%d)", byte(t))
}

// Frame is one overlay protocol message. Each frame type sets only the
// payload fields it carries; zero-valued fields are absent on the wire
// (wire_binary.go).
type Frame struct {
	Type FrameType
	// Origin names the broker where the carried state was created;
	// together with Sub.ID it forms the overlay-wide identity of the
	// routed subscription.
	Origin string
	// Hops lists brokers the frame has visited, in order. A node never
	// forwards a frame to a peer already in Hops and drops frames that
	// have looped back to itself.
	Hops []string

	Sub   *message.Subscription // sub
	SubID message.SubID         // unsub

	Event *message.Event // pub
	PubID string         // pub/trace: origin-scoped identity

	// Trace carries per-publication span records (DESIGN §10). On pub
	// frames it holds the spans accumulated by every broker already
	// visited — its presence IS the head-based sampling decision, made
	// once at the origin. On trace frames it carries a broker's full
	// current span set for the publication back along the reverse
	// forwarding path, so terminal delivery outcomes reach the origin.
	Trace []trace.Span

	// KB carries one knowledge delta (kb frames). The delta's own
	// origin#epoch/seq identity is the dedup key, reusing the
	// publication suppression machinery with a "kb|" prefix.
	KB *knowledge.Delta

	// Ops carries one broker health summary (ops frames, DESIGN §10):
	// low-rate cluster-introspection gossip flooded with the same
	// hop-list/dedup machinery as publications, keyed "ops|" +
	// origin#epoch/seq.
	Ops *OpsSummary
}

// The hello preamble is the first thing each side writes on a new
// connection, before any frame:
//
//	magic "STPS" · protocol version byte · name length byte · node name
//
// There is one protocol version and no negotiation: a peer announcing
// any other version, or not starting with the magic at all, is refused
// (errHelloVersion, errHelloMalformed). The name length is a single
// byte, so reading a hello commits at most maxNodeName bytes whatever
// an unvetted peer sends.
const (
	helloMagic      = "STPS"
	protocolVersion = 2
	maxNodeName     = 255
)

// Errors from the hello exchange, distinguishable by the caller: a
// timeout means a silent or stalled peer (worth re-dialing), a
// malformed hello means the remote speaks something else entirely, a
// version mismatch means it is an S-ToPSS broker of another release.
var (
	errHelloTimeout   = errors.New("overlay: hello handshake timed out")
	errHelloMalformed = errors.New("overlay: malformed hello")
	errHelloVersion   = errors.New("overlay: protocol version mismatch")
)

// helloPreamble encodes the hello for a node name already checked
// against maxNodeName (NewNode).
func helloPreamble(name string) []byte {
	b := append([]byte(helloMagic), protocolVersion, byte(len(name)))
	return append(b, name...)
}

// readHello reads the peer's hello preamble and returns its node name.
// Content errors wrap errHelloMalformed or errHelloVersion; read errors
// are returned as they come.
func readHello(r io.Reader) (string, error) {
	var hdr [len(helloMagic) + 2]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return "", err
	}
	if string(hdr[:len(helloMagic)]) != helloMagic {
		return "", fmt.Errorf("%w: bad magic %q", errHelloMalformed, hdr[:len(helloMagic)])
	}
	if v := hdr[len(helloMagic)]; v != protocolVersion {
		return "", fmt.Errorf("%w: peer speaks version %d, this node %d", errHelloVersion, v, protocolVersion)
	}
	n := hdr[len(helloMagic)+1]
	if n == 0 {
		return "", fmt.Errorf("%w: empty node name", errHelloMalformed)
	}
	name := make([]byte, n)
	if _, err := io.ReadFull(r, name); err != nil {
		return "", err
	}
	return string(name), nil
}

// maxFrameSize bounds one frame on the wire; a subscription or expanded
// event is a few hundred bytes, so 1 MiB is generous headroom.
const maxFrameSize = 1 << 20

// frameAllocChunk caps the buffer readBody allocates up front. The
// length prefix is whatever the peer sent, so memory beyond this chunk
// is committed only as body bytes actually arrive.
const frameAllocChunk = 64 << 10

// errFrameTooLarge reports a length prefix outside (0, maxFrameSize].
var errFrameTooLarge = fmt.Errorf("overlay: frame length out of range (max %d)", maxFrameSize)

// errFrameEncode marks failures that happen while ENCODING a frame,
// before any byte reaches the connection. Together with an oversized
// encoded body (errFrameTooLarge from the write path) these are
// droppable: the link writer discards the single frame (counted in
// overlay.frames_oversized) instead of tearing down the link, because
// the stream is still in sync — only this frame's payload was
// unshippable.
var errFrameEncode = fmt.Errorf("overlay: frame encoding failed")

// droppableWriteError reports whether a link.writeFrame error cost the
// link nothing on the wire, so the frame can be dropped and the link
// kept.
func droppableWriteError(err error) bool {
	return errors.Is(err, errFrameTooLarge) || errors.Is(err, errFrameEncode)
}

// readFrameBinary decodes one frame: uvarint body length, then the body
// (wire_binary.go). A malformed length prefix can neither allocate
// unbounded memory (lengths above maxFrameSize are rejected before any
// body allocation) nor force a large allocation backed by no data (see
// readBody). bufp, if non-nil, is the caller's reusable body buffer: its
// capacity is kept across frames, so a steady-state link reads without
// allocating.
func readFrameBinary(r *bufio.Reader, bufp *[]byte, dict *message.Intern) (Frame, error) {
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return Frame{}, err
	}
	if n == 0 || n > maxFrameSize {
		return Frame{}, fmt.Errorf("overlay: frame length %d: %w", n, errFrameTooLarge)
	}
	body, err := readBody(r, bufp, int(n))
	if err != nil {
		return Frame{}, err
	}
	return decodeFrameBinary(body, dict)
}

// readBody fills a buffer with n body bytes from r, growing it in
// frameAllocChunk steps so an attacker-controlled length prefix commits
// memory only as body bytes actually arrive. With a non-nil bufp the
// buffer (and its grown capacity) is reused across calls; decoded
// frames must therefore copy what they keep, which the decoder does
// (BReader.String copies bytes; json.Unmarshal copies the KB/ops blobs).
func readBody(r *bufio.Reader, bufp *[]byte, n int) ([]byte, error) {
	var buf []byte
	if bufp != nil {
		buf = (*bufp)[:0]
	}
	for len(buf) < n {
		start := len(buf)
		chunk := min(n-start, frameAllocChunk)
		if start+chunk > cap(buf) {
			grown := make([]byte, start+chunk)
			copy(grown, buf)
			buf = grown
		} else {
			buf = buf[:start+chunk]
		}
		if _, err := io.ReadFull(r, buf[start:]); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
		if bufp != nil {
			*bufp = buf
		}
	}
	return buf, nil
}

// visited reports whether node name appears in the hop list.
func visited(hops []string, name string) bool {
	for _, h := range hops {
		if h == name {
			return true
		}
	}
	return false
}
