package overlay

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"testing"
	"time"

	"stopss/internal/knowledge"
	"stopss/internal/message"
	"stopss/internal/trace"
)

// testFrames is one frame of every type, exercising every payload
// field at least once.
func testFrames() []Frame {
	sub := message.NewSubscription(7, "acme",
		message.Pred("x", message.OpGe, message.Int(10)),
		message.Pred("city", message.OpEq, message.String("Toronto")))
	ev := message.E("x", 42, "city", "Toronto", "score", 3.25, "ok", true)
	spans := []trace.Span{
		{Broker: "broker-a", Seq: 1, Kind: trace.KindPublish, Start: time.Date(2026, 8, 8, 9, 0, 0, 123456789, time.UTC)},
		{Broker: "broker-a", Seq: 2, Kind: trace.KindForward, Start: time.Date(2026, 8, 8, 9, 0, 1, 0, time.UTC), Link: "broker-b"},
	}
	kb := knowledge.Delta{Origin: "broker-a", Epoch: "e1", Seq: 3, Op: knowledge.OpAddSynonym,
		Root: "school", Terms: []string{"university", "college"}}

	return []Frame{
		{Type: frameSub, Origin: "broker-c", Hops: []string{"broker-c", "broker-b"}, Sub: &sub},
		{Type: frameUnsub, Origin: "broker-c", SubID: 7, Hops: []string{"broker-c"}},
		{Type: framePub, Origin: "broker-a", PubID: "broker-a/1", Event: &ev, Hops: []string{"broker-a"}, Trace: spans},
		{Type: frameKB, Origin: "broker-a", KB: &kb, Hops: []string{"broker-a"}},
		{Type: frameTrace, PubID: "broker-a/1", Trace: spans},
		benchOpsFrame(),
	}
}

// newWireLink is a link with only its wire state: an encoder writing
// into sink, as the writer goroutine would onto the connection.
func newWireLink(sink *bytes.Buffer) *link {
	return &link{
		bw:   bufio.NewWriter(sink),
		enc:  message.BWriter{Dict: message.NewIntern()},
		peer: "peer",
	}
}

// frameJSON renders a frame canonically for comparison (time stamps
// and nil-versus-empty payloads compare by value, not representation).
func frameJSON(t testing.TB, f Frame) string {
	t.Helper()
	js, err := json.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	return string(js)
}

// TestFrameRoundTrip streams every frame type through the link writer
// and the production reader over persistent dictionaries (as a real
// link would) and checks the decoded frames are indistinguishable from
// the originals. The second pass re-sends the same frames so dictionary
// back-references are actually exercised, and must produce strictly
// fewer bytes. Every assigned frame type must have a case, so a new
// type cannot ship without a codec test.
func TestFrameRoundTrip(t *testing.T) {
	frames := testFrames()
	covered := make(map[FrameType]bool, len(frames))
	for _, f := range frames {
		covered[f.Type] = true
	}
	for ft := range FrameType(len(frameNames)) {
		if ft.valid() && !covered[ft] {
			t.Errorf("frame type %s has no round-trip case in testFrames", ft)
		}
	}
	var wire bytes.Buffer
	l := newWireLink(&wire)
	var wireLen [2]int // stream length after each pass
	for pass := range wireLen {
		for _, f := range frames {
			if err := l.writeFrame(f); err != nil {
				t.Fatalf("pass %d: writing %s frame: %v", pass, f.Type, err)
			}
		}
		if err := l.bw.Flush(); err != nil {
			t.Fatal(err)
		}
		wireLen[pass] = wire.Len()
	}
	if first, second := wireLen[0], wireLen[1]-wireLen[0]; second >= first {
		t.Fatalf("interning had no effect: first pass %d bytes, second pass %d", first, second)
	}

	r := bufio.NewReader(&wire)
	rdict := message.NewIntern()
	var rbuf []byte
	for pass := range wireLen {
		for i, want := range frames {
			got, err := readFrameBinary(r, &rbuf, rdict)
			if err != nil {
				t.Fatalf("pass %d: reading frame %d (%s): %v", pass, i, want.Type, err)
			}
			if w, g := frameJSON(t, want), frameJSON(t, got); w != g {
				t.Fatalf("pass %d frame %d (%s) round trip mismatch:\n  sent %s\n  got  %s", pass, i, want.Type, w, g)
			}
			// The decoded payloads must still behave, not just print alike.
			switch want.Type {
			case frameSub:
				if ev := message.E("x", 42, "city", "Toronto"); !got.Sub.Matches(ev) {
					t.Errorf("decoded subscription no longer matches %v", ev)
				}
			case framePub:
				if !got.Event.Equal(*want.Event) {
					t.Errorf("event did not survive the round trip: %v", got.Event)
				}
			}
		}
	}
	if _, err := readFrameBinary(r, &rbuf, rdict); err != io.EOF {
		t.Errorf("after the last frame: got %v, want io.EOF", err)
	}
}

func TestFrameRejectsGarbage(t *testing.T) {
	dict := message.NewIntern()
	if _, err := decodeFrameBinary(nil, dict); err == nil {
		t.Error("empty body must be rejected")
	}
	for _, tc := range []byte{0, byte(len(frameNames)), 0x77} {
		if _, err := decodeFrameBinary([]byte{tc, 0}, dict); err == nil {
			t.Errorf("unknown frame type %d must be rejected", tc)
		}
	}
	// Unknown presence bits cannot be skipped (no per-field lengths).
	var w message.BWriter
	w.Byte(byte(frameUnsub))
	w.Uvarint(maskKnown + 1)
	if _, err := decodeFrameBinary(w.Buf, dict); err == nil {
		t.Error("unknown presence bits must be rejected")
	}
	// Trailing bytes after a well-formed frame are corruption.
	w.Reset()
	if err := appendFrameBinary(&w, Frame{Type: frameUnsub, SubID: 7}); err != nil {
		t.Fatal(err)
	}
	w.Byte(0xff)
	if _, err := decodeFrameBinary(w.Buf, message.NewIntern()); err == nil {
		t.Error("trailing bytes must be rejected")
	}
	// A frame type the encoder does not know is droppable, not fatal.
	if err := appendFrameBinary(&w, Frame{}); !errors.Is(err, errFrameEncode) {
		t.Errorf("encoding a typeless frame: got %v, want errFrameEncode", err)
	}

	// Length prefixes: zero, beyond the cap, and longer than the data.
	read := func(data []byte) error {
		_, err := readFrameBinary(bufio.NewReader(bytes.NewReader(data)), nil, dict)
		return err
	}
	if err := read([]byte{0}); !errors.Is(err, errFrameTooLarge) {
		t.Errorf("zero-length frame: got %v, want errFrameTooLarge", err)
	}
	if err := read(binary.AppendUvarint(nil, maxFrameSize+1)); !errors.Is(err, errFrameTooLarge) {
		t.Errorf("oversized length prefix: got %v, want errFrameTooLarge", err)
	}
	if err := read(append(binary.AppendUvarint(nil, 1024), byte(frameUnsub), 0)); err != io.ErrUnexpectedEOF {
		t.Errorf("truncated body: got %v, want io.ErrUnexpectedEOF", err)
	}
}

// TestLinkWriteFrameOversizedRollsBackDict pins the dictionary-desync
// hazard: when an encoded frame is dropped for size, every literal it
// interned must be forgotten, or the peer's table (which never sees the
// frame) diverges and later back-references resolve to wrong strings.
func TestLinkWriteFrameOversizedRollsBackDict(t *testing.T) {
	var sink bytes.Buffer
	l := newWireLink(&sink)
	rdict := message.NewIntern()

	big := message.E("payload", string(make([]byte, maxFrameSize)))
	over := Frame{Type: framePub, Origin: "broker-a", PubID: "p/1",
		Event: &big, Hops: []string{"broker-a"}}
	err := l.writeFrame(over)
	if !errors.Is(err, errFrameTooLarge) {
		t.Fatalf("oversized frame: got %v, want errFrameTooLarge", err)
	}
	if !droppableWriteError(err) {
		t.Fatal("oversized encode must be classified droppable")
	}
	if sink.Len() != 0 || l.bw.Buffered() != 0 {
		t.Fatal("oversized frame leaked bytes onto the stream")
	}

	// The dropped frame interned "payload", "broker-a" etc. Re-encode a
	// frame reusing those strings: a fresh receiver dictionary (which
	// never saw the dropped frame) must still decode it.
	ok := message.E("payload", "small")
	good := Frame{Type: framePub, Origin: "broker-a", PubID: "p/2",
		Event: &ok, Hops: []string{"broker-a"}}
	if err := l.writeFrame(good); err != nil {
		t.Fatalf("follow-up frame: %v", err)
	}
	if err := l.bw.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := readFrameBinary(bufio.NewReader(&sink), nil, rdict)
	if err != nil {
		t.Fatalf("decoding follow-up frame after a dropped one: %v", err)
	}
	if w, g := frameJSON(t, good), frameJSON(t, got); w != g {
		t.Fatalf("dictionary desynced after drop:\n  sent %s\n  got  %s", w, g)
	}
}
