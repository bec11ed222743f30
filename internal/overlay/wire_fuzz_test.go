package overlay

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"runtime"
	"strings"
	"testing"

	"stopss/internal/message"
)

// frameBytes encodes one frame as a fresh link would put it on the
// wire: uvarint length, then the body against an empty dictionary.
func frameBytes(t testing.TB, f Frame) ([]byte, error) {
	t.Helper()
	var wire bytes.Buffer
	l := newWireLink(&wire)
	if err := l.writeFrame(f); err != nil {
		return nil, err
	}
	if err := l.bw.Flush(); err != nil {
		t.Fatal(err)
	}
	return wire.Bytes(), nil
}

// FuzzFrame drives the production reader — readFrameBinary with a fresh
// dictionary, what a link's read loop runs on its first frame — with
// arbitrary bytes. It never panics; a length prefix beyond the cap is
// refused as errFrameTooLarge before any body is read
// (TestReadFrameBoundedAllocation pins what that saves); and any frame
// it accepts is a fixpoint once re-encoded: encode→decode→encode yields
// the same bytes, so no two brokers can disagree about a relayed
// frame's meaning.
func FuzzFrame(f *testing.F) {
	for _, fr := range testFrames() {
		b, err := frameBytes(f, fr)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	// Malformed length prefixes: zero, oversized, overlong varint,
	// truncated body.
	f.Add([]byte{0})
	f.Add(binary.AppendUvarint(nil, maxFrameSize+1))
	f.Add(bytes.Repeat([]byte{0xff}, binary.MaxVarintLen64+1))
	f.Add(append(binary.AppendUvarint(nil, 1024), byte(framePub), 0))
	// Malformed bodies: an unassigned frame type and an unknown
	// presence bit.
	f.Add([]byte{2, byte(len(frameNames)), 0})
	f.Add(binary.AppendUvarint([]byte{3, byte(frameUnsub)}, maskKnown+1))

	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := readFrameBinary(bufio.NewReader(bytes.NewReader(data)), nil, message.NewIntern())
		if err != nil {
			if n, w := binary.Uvarint(data); w > 0 && n > maxFrameSize && !errors.Is(err, errFrameTooLarge) {
				t.Fatalf("length %d rejected with %v, want errFrameTooLarge", n, err)
			}
			return // malformed input rejected: that is the contract
		}
		if !fr.Type.valid() {
			t.Fatalf("reader accepted frame type %d", fr.Type)
		}

		b1, err := frameBytes(t, fr)
		if err != nil {
			// Re-marshalling an embedded KB/ops blob can escape a
			// near-cap body past the cap; only the size limit excuses a
			// failure.
			if errors.Is(err, errFrameTooLarge) {
				return
			}
			t.Fatalf("re-encoding an accepted frame: %v", err)
		}
		fr2, err := readFrameBinary(bufio.NewReader(bytes.NewReader(b1)), nil, message.NewIntern())
		if err != nil {
			t.Fatalf("re-decoding an accepted frame: %v", err)
		}
		// The first decode may normalize arbitrary input (overlong
		// varints, repeated literals), but a decoded frame must be a
		// fixpoint.
		b2, err := frameBytes(t, fr2)
		if err != nil {
			t.Fatalf("re-encoding a re-decoded frame: %v", err)
		}
		if !bytes.Equal(b1, b2) {
			t.Fatalf("round trip not stable:\n first: %x\nsecond: %x", b1, b2)
		}
	})
}

// legacyJSONHello is the hello of the retired JSON framing: a 4-byte
// big-endian length, then a JSON frame.
func legacyJSONHello() []byte {
	body := `{"type":"hello","name":"old","codec":2}`
	return append(binary.BigEndian.AppendUint32(nil, uint32(len(body))), body...)
}

// helloWithVersion is a well-formed preamble announcing version v.
func helloWithVersion(v byte) []byte {
	b := helloPreamble("peer")
	b[len(helloMagic)] = v
	return b
}

// helloCases is the hello-preamble table: what a peer may open a
// connection with, and what readHello makes of it.
var helloCases = []struct {
	name     string
	in       []byte
	wantPeer string
	wantErr  error
}{
	{name: "valid", in: helloPreamble("broker-a"), wantPeer: "broker-a"},
	{name: "longest name", in: helloPreamble(strings.Repeat("n", maxNodeName)), wantPeer: strings.Repeat("n", maxNodeName)},
	{name: "legacy JSON hello", in: legacyJSONHello(), wantErr: errHelloMalformed},
	{name: "wrong magic", in: []byte("HTTP/1.1 400"), wantErr: errHelloMalformed},
	{name: "older version", in: helloWithVersion(protocolVersion - 1), wantErr: errHelloVersion},
	{name: "newer version", in: helloWithVersion(protocolVersion + 1), wantErr: errHelloVersion},
	{name: "zero-length name", in: helloPreamble(""), wantErr: errHelloMalformed},
	{name: "name shorter than declared", in: helloPreamble(strings.Repeat("n", maxNodeName))[:20], wantErr: io.ErrUnexpectedEOF},
	{name: "truncated header", in: []byte(helloMagic), wantErr: io.ErrUnexpectedEOF},
	{name: "empty", in: nil, wantErr: io.EOF},
}

func TestReadHello(t *testing.T) {
	for _, tc := range helloCases {
		peer, err := readHello(bytes.NewReader(tc.in))
		if peer != tc.wantPeer || !errors.Is(err, tc.wantErr) {
			t.Errorf("%s: got (%q, %v), want (%q, %v)", tc.name, peer, err, tc.wantPeer, tc.wantErr)
		}
	}
}

// FuzzHello feeds arbitrary bytes to readHello: it never panics, every
// refusal is one of the two sentinels or a short read, and an accepted
// preamble is exactly the canonical encoding of the name it yields.
func FuzzHello(f *testing.F) {
	for _, tc := range helloCases {
		f.Add(tc.in)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		peer, err := readHello(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, errHelloMalformed) && !errors.Is(err, errHelloVersion) &&
				err != io.EOF && err != io.ErrUnexpectedEOF {
				t.Fatalf("unclassified hello error: %v", err)
			}
			return
		}
		if peer == "" || len(peer) > maxNodeName {
			t.Fatalf("accepted a %d-byte node name", len(peer))
		}
		if want := helloPreamble(peer); !bytes.HasPrefix(data, want) {
			t.Fatalf("accepted %x, which is not the preamble of %q", data, peer)
		}
	})
}

// TestReadFrameBoundedAllocation pins the hardening FuzzFrame relies
// on: a forged length prefix claiming the full 1 MiB backed by no data
// must not allocate the claimed size up front.
func TestReadFrameBoundedAllocation(t *testing.T) {
	hdr := binary.AppendUvarint(nil, maxFrameSize)
	dict := message.NewIntern()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	const rounds = 100
	for i := 0; i < rounds; i++ {
		if _, err := readFrameBinary(bufio.NewReader(bytes.NewReader(hdr)), nil, dict); err == nil {
			t.Fatal("truncated 1MiB frame must not decode")
		}
	}
	runtime.ReadMemStats(&after)
	// Pre-hardening, each forged header committed the full claimed MiB
	// (rounds × 1 MiB total); incremental allocation stays around the
	// initial chunk per call. A quarter of the unbounded cost is the
	// dividing line, leaving headroom for race-detector and runtime
	// noise.
	if grew := after.TotalAlloc - before.TotalAlloc; grew > rounds*maxFrameSize/4 {
		t.Fatalf("%d forged 1MiB headers allocated %d bytes; prefix-driven allocation is unbounded", rounds, grew)
	}
}
