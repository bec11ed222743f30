package overlay

import (
	"encoding/json"
	"fmt"

	"stopss/internal/knowledge"
	"stopss/internal/message"
	"stopss/internal/trace"
)

// Binary frame codec (DESIGN §6). A frame on the wire is a uvarint body
// length followed by the body:
//
//	type byte · presence mask (uvarint) · present fields in fixed order
//
// Fields reuse the message-layer binary codecs; recurring strings
// (broker names, attributes, terms) go through a per-link, per-direction
// interning dictionary that both ends grow deterministically, so after
// warm-up a hop name or attribute costs one or two bytes. Knowledge
// deltas and ops summaries stay as embedded JSON blobs: they are rare
// control-plane traffic with a deeply nested or evolving shape, not
// worth a hand-rolled codec.

// Presence-mask bits, one per Frame payload field, in encode order. A
// field is present iff it is non-zero (non-empty for slices).
const (
	bitOrigin = 1 << iota
	bitHops
	bitSub
	bitSubID
	bitEvent
	bitPubID
	bitTrace
	bitKB
	bitOps

	maskKnown = bitOps<<1 - 1
)

// appendFrameBinary encodes f onto w. On error the caller must roll
// back w's dictionary to its pre-call mark — partially encoded literals
// have claimed ids the peer will never learn.
func appendFrameBinary(w *message.BWriter, f Frame) error {
	if !f.Type.valid() {
		return fmt.Errorf("%w: unknown frame type %d", errFrameEncode, f.Type)
	}
	w.Byte(byte(f.Type))

	var mask uint64
	if f.Origin != "" {
		mask |= bitOrigin
	}
	if len(f.Hops) > 0 {
		mask |= bitHops
	}
	if f.Sub != nil {
		mask |= bitSub
	}
	if f.SubID != 0 {
		mask |= bitSubID
	}
	if f.Event != nil {
		mask |= bitEvent
	}
	if f.PubID != "" {
		mask |= bitPubID
	}
	if len(f.Trace) > 0 {
		mask |= bitTrace
	}
	if f.KB != nil {
		mask |= bitKB
	}
	if f.Ops != nil {
		mask |= bitOps
	}
	w.Uvarint(mask)

	if mask&bitOrigin != 0 {
		w.String(f.Origin)
	}
	if mask&bitHops != 0 {
		w.Uvarint(uint64(len(f.Hops)))
		for _, h := range f.Hops {
			w.String(h)
		}
	}
	if mask&bitSub != 0 {
		w.Subscription(*f.Sub)
	}
	if mask&bitSubID != 0 {
		w.Uvarint(uint64(f.SubID))
	}
	if mask&bitEvent != 0 {
		w.Event(*f.Event)
	}
	if mask&bitPubID != 0 {
		// Publication IDs are unique by construction; interning them
		// would only churn the dictionary.
		w.RawString(f.PubID)
	}
	if mask&bitTrace != 0 {
		trace.AppendSpans(w, f.Trace)
	}
	if mask&bitKB != 0 {
		blob, err := json.Marshal(f.KB)
		if err != nil {
			return fmt.Errorf("%w: kb delta: %v", errFrameEncode, err)
		}
		w.Uvarint(uint64(len(blob)))
		w.Buf = append(w.Buf, blob...)
	}
	if mask&bitOps != 0 {
		blob, err := json.Marshal(f.Ops)
		if err != nil {
			return fmt.Errorf("%w: ops summary: %v", errFrameEncode, err)
		}
		w.Uvarint(uint64(len(blob)))
		w.Buf = append(w.Buf, blob...)
	}
	return nil
}

// decodeFrameBinary decodes one binary frame body. dict must be the
// receive-direction dictionary mirroring the sender's.
func decodeFrameBinary(body []byte, dict *message.Intern) (Frame, error) {
	r := message.NewBReader(body, dict)
	tc, err := r.Byte()
	if err != nil {
		return Frame{}, err
	}
	f := Frame{Type: FrameType(tc)}
	if !f.Type.valid() {
		return Frame{}, fmt.Errorf("overlay: unknown frame type %d", tc)
	}
	mask, err := r.Uvarint()
	if err != nil {
		return Frame{}, err
	}
	if mask&^uint64(maskKnown) != 0 {
		// Unknown fields carry no length, so they cannot be skipped; the
		// hello guarantees both ends speak the same version, making this
		// corruption, not a newer peer.
		return Frame{}, fmt.Errorf("overlay: frame with unknown field bits %#x", mask)
	}

	if mask&bitOrigin != 0 {
		if f.Origin, err = r.String(); err != nil {
			return Frame{}, err
		}
	}
	if mask&bitHops != 0 {
		n, err := r.Uvarint()
		if err != nil {
			return Frame{}, err
		}
		if n > uint64(r.Len()) {
			return Frame{}, fmt.Errorf("overlay: hop count %d exceeds input", n)
		}
		f.Hops = make([]string, 0, n)
		for i := uint64(0); i < n; i++ {
			h, err := r.String()
			if err != nil {
				return Frame{}, err
			}
			f.Hops = append(f.Hops, h)
		}
	}
	if mask&bitSub != 0 {
		sub, err := r.Subscription()
		if err != nil {
			return Frame{}, err
		}
		f.Sub = &sub
	}
	if mask&bitSubID != 0 {
		id, err := r.Uvarint()
		if err != nil {
			return Frame{}, err
		}
		f.SubID = message.SubID(id)
	}
	if mask&bitEvent != 0 {
		ev, err := r.Event()
		if err != nil {
			return Frame{}, err
		}
		f.Event = &ev
	}
	if mask&bitPubID != 0 {
		if f.PubID, err = r.RawString(); err != nil {
			return Frame{}, err
		}
	}
	if mask&bitTrace != 0 {
		if f.Trace, err = trace.ReadSpans(r); err != nil {
			return Frame{}, err
		}
	}
	if mask&bitKB != 0 {
		blob, err := r.RawString()
		if err != nil {
			return Frame{}, err
		}
		var d knowledge.Delta
		if err := json.Unmarshal([]byte(blob), &d); err != nil {
			return Frame{}, fmt.Errorf("overlay: decoding kb delta: %w", err)
		}
		f.KB = &d
	}
	if mask&bitOps != 0 {
		blob, err := r.RawString()
		if err != nil {
			return Frame{}, err
		}
		var s OpsSummary
		if err := json.Unmarshal([]byte(blob), &s); err != nil {
			return Frame{}, fmt.Errorf("overlay: decoding ops summary: %w", err)
		}
		f.Ops = &s
	}
	if r.Len() != 0 {
		return Frame{}, fmt.Errorf("overlay: %d trailing bytes after %s frame", r.Len(), f.Type)
	}
	return f, nil
}
